package coherence

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"memverify/internal/memory"
	"memverify/internal/solver"
	"memverify/internal/workload"
)

// fastOn runs the frontline directly and fails the test on a budget
// error (the tests here never set budgets).
func fastOn(t *testing.T, exec *memory.Execution) *fastOutcome {
	t.Helper()
	out, e := fastPath(context.Background(), exec, project(exec, 0), nil)
	if e != nil {
		t.Fatalf("fast path budget error without a budget: %v", e)
	}
	return out
}

// TestFastPathOracleSmall cross-checks the frontline against the
// brute-force oracle on fully random tiny instances: whenever the fast
// path decides, the verdict must match, and accepts must carry a valid
// certificate. Inconclusive is always allowed — it is the escalation
// signal, not an answer.
func TestFastPathOracleSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	decided := 0
	for i := 0; i < 500; i++ {
		exec := randomInstance(rng)
		if exec.Validate() != nil {
			continue
		}
		want, _ := bruteForceCoherent(exec, 0)
		out := fastOn(t, exec)
		if out.verdict == fastInconclusive {
			continue
		}
		decided++
		if got := out.result.Coherent; got != want {
			t.Fatalf("instance %d: fast path says %v (%s), oracle says %v\nhistories=%v init=%v final=%v",
				i, got, out.detail, want, exec.Histories, exec.Initial, exec.Final)
		}
		if out.verdict == fastAccept {
			if err := memory.CheckCoherent(exec, 0, out.result.Schedule); err != nil {
				t.Fatalf("instance %d: invalid certificate: %v", i, err)
			}
		}
	}
	if decided < 100 {
		t.Errorf("fast path decided only %d/500 random instances — the frontline lost its reach", decided)
	}
}

// TestFastPathOracleWorkload cross-checks the frontline against the
// exact solver on generator-sized instances: coherent traces with
// repeated values (the read-map specialist is inapplicable) and their
// injected-violation mutations. Zero disagreements is the soundness
// acceptance criterion.
func TestFastPathOracleWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	exact := solver.New(solver.WithoutFastPath())
	decided := 0
	for i := 0; i < 150; i++ {
		exec, _ := workload.GenerateCoherent(rng, workload.GenConfig{
			Processors: 3, OpsPerProc: 8, Addresses: 1, Values: 3,
			WriteFraction: 0.4, RMWFraction: 0.1,
		})
		if i%2 == 1 {
			kinds := workload.ViolationKinds()
			if mut, err := workload.Inject(rng, exec, kinds[rng.Intn(len(kinds))]); err == nil {
				exec = mut
			}
		}
		want, err := NewVerifier(solver.WithOptions(exact)).Solve(context.Background(), exec, 0)
		if err != nil {
			t.Fatalf("instance %d: oracle: %v", i, err)
		}
		out := fastOn(t, exec)
		if out.verdict == fastInconclusive {
			continue
		}
		decided++
		if out.result.Coherent != want.Coherent {
			t.Fatalf("instance %d: fast path says %v (%s), exact says %v\nhistories=%v",
				i, out.result.Coherent, out.detail, want.Coherent, exec.Histories)
		}
	}
	if decided == 0 {
		t.Error("fast path decided none of the workload instances")
	}
}

// TestFastPathRejectRules drives one targeted instance into each sound
// refutation rule and checks both the verdict and the reported reason.
// Every instance is genuinely incoherent (asserted against the oracle),
// so each REJECT is exercised as a sound one.
func TestFastPathRejectRules(t *testing.T) {
	cases := []struct {
		name   string
		exec   *memory.Execution
		detail string
	}{
		{
			name: "unwritten-value-with-initial",
			exec: memory.NewExecution(
				memory.History{memory.W(0, 1)},
				memory.History{memory.R(0, 9)},
			).SetInitial(0, 0),
			detail: "never written",
		},
		{
			name: "unwritten-value-after-own-write",
			exec: memory.NewExecution(
				memory.History{memory.W(0, 1), memory.R(0, 9)},
			),
			detail: "a write in its history precedes it",
		},
		{
			name: "own-overwritten-value-unreachable",
			exec: memory.NewExecution(
				memory.History{memory.W(0, 5), memory.W(0, 9), memory.R(0, 5)},
			).SetInitial(0, 0),
			detail: "unreachable",
		},
		{
			name: "initial-region-binding-conflict",
			exec: memory.NewExecution(
				memory.History{memory.R(0, 7), memory.W(0, 1)},
				memory.History{memory.R(0, 8)},
			),
			detail: "initial region would need to hold both",
		},
		{
			name: "two-initial-rmws",
			exec: memory.NewExecution(
				memory.History{memory.RW(0, 7, 1)},
				memory.History{memory.RW(0, 7, 2)},
			),
			detail: "first position",
		},
		{
			name: "rmw-double-claim",
			exec: memory.NewExecution(
				memory.History{memory.W(0, 5)},
				memory.History{memory.RW(0, 5, 6)},
				memory.History{memory.RW(0, 5, 7)},
			).SetInitial(0, 0),
			detail: "directly read the same write",
		},
		{
			name: "constraint-cycle",
			exec: memory.NewExecution(
				memory.History{memory.W(0, 1), memory.R(0, 2)},
				memory.History{memory.W(0, 2), memory.R(0, 1)},
			).SetInitial(0, 0),
			detail: "cycle",
		},
		{
			name: "final-value-never-written",
			exec: memory.NewExecution(
				memory.History{memory.W(0, 1)},
			).SetInitial(0, 0).SetFinal(0, 42),
			detail: "never written",
		},
		{
			name: "final-writer-has-successor",
			exec: memory.NewExecution(
				memory.History{memory.W(0, 1), memory.W(0, 2)},
			).SetInitial(0, 0).SetFinal(0, 1),
			detail: "required successor",
		},
		{
			name: "unique-order-placement-fails",
			exec: memory.NewExecution(
				memory.History{memory.W(0, 1), memory.W(0, 2)},
				memory.History{memory.R(0, 1), memory.R(0, 2), memory.R(0, 1)},
			).SetInitial(0, 0),
			detail: "only admissible write order",
		},
		{
			name: "pruned-to-no-source",
			exec: memory.NewExecution(
				memory.History{memory.W(0, 5), memory.W(0, 6)},
				memory.History{memory.R(0, 6), memory.W(0, 5), memory.W(0, 7)},
				memory.History{memory.R(0, 7), memory.R(0, 5)},
			).SetInitial(0, 0),
			detail: "no admissible source",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if want, _ := bruteForceCoherent(tc.exec, 0); want {
				t.Fatal("test premise broken: instance is coherent")
			}
			out := fastOn(t, tc.exec)
			if out.verdict != fastReject {
				t.Fatalf("verdict = %s (%s), want reject", out.verdict, out.detail)
			}
			if !strings.Contains(out.detail, tc.detail) {
				t.Errorf("detail = %q, want it to mention %q", out.detail, tc.detail)
			}
			if out.result == nil || out.result.Coherent || !out.result.Decided {
				t.Errorf("reject outcome carries result %+v", out.result)
			}
		})
	}
}

// TestFastPathAcceptByPruning: a read starts with two candidate writers
// and the vector-clock prune (program order puts one strictly before
// the read's determined predecessor) leaves exactly one — the frontline
// accepts with a validated certificate.
func TestFastPathAcceptByPruning(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 5), memory.W(0, 6)},
		memory.History{memory.W(0, 5)},
		memory.History{memory.R(0, 6), memory.R(0, 5)},
	).SetInitial(0, 0)
	out := fastOn(t, exec)
	if out.verdict != fastAccept {
		t.Fatalf("verdict = %s (%s), want accept", out.verdict, out.detail)
	}
	if err := memory.CheckCoherent(exec, 0, out.result.Schedule); err != nil {
		t.Fatalf("invalid certificate: %v", err)
	}
	if out.result.Algorithm != "fastpath" {
		t.Errorf("algorithm = %q", out.result.Algorithm)
	}
}

// TestFastPathInconclusiveEscalates: an instance whose write order is
// not forced (no necessary edges relate the two writers) and whose
// candidate order fails placement must be INCONCLUSIVE — never a guess
// — and the resilient preset must escalate past it to the exact search
// for the real verdict.
func TestFastPathInconclusiveEscalates(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1)},
		memory.History{memory.W(0, 2)},
		memory.History{memory.R(0, 1), memory.R(0, 2), memory.R(0, 1)},
	).SetInitial(0, 0)
	out := fastOn(t, exec)
	if out.verdict != fastInconclusive {
		t.Fatalf("verdict = %s (%s), want inconclusive", out.verdict, out.detail)
	}

	rr, err := solveResilient(context.Background(), exec, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Verdict != VerdictIncoherent || rr.Rung != RungExact {
		t.Fatalf("verdict=%s rung=%s, want incoherent at exact after escalation", rr.Verdict, rr.Rung)
	}
	// The frontline's work is carried into the aggregate, not lost.
	if rr.Stats.States < exec.NumOps() {
		t.Errorf("aggregated stats %d states lost the frontline's pass", rr.Stats.States)
	}
}

// TestResilientFastRung: with default options the ladder's frontline
// rung decides structured instances outright, both ways, and records
// RungFast (-1) in the stats.
func TestResilientFastRung(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1)},
		memory.History{memory.R(0, 1)},
	).SetInitial(0, 0)
	rr, err := solveResilient(context.Background(), exec, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Verdict != VerdictCoherent || rr.Rung != RungFast {
		t.Fatalf("verdict=%s rung=%s, want coherent at fast", rr.Verdict, rr.Rung)
	}
	if rr.Stats.Rung != int(RungFast) {
		t.Errorf("Stats.Rung = %d, want %d", rr.Stats.Rung, int(RungFast))
	}
	if err := memory.CheckCoherent(exec, 0, rr.Result.Schedule); err != nil {
		t.Errorf("fast rung certificate invalid: %v", err)
	}

	bad := memory.NewExecution(
		memory.History{memory.W(0, 1)},
		memory.History{memory.R(0, 9)},
	).SetInitial(0, 0)
	rr, err = solveResilient(context.Background(), bad, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Verdict != VerdictIncoherent || rr.Rung != RungFast {
		t.Fatalf("verdict=%s rung=%s, want incoherent at fast", rr.Verdict, rr.Rung)
	}
}

// TestStrategyFastFacade: solver.StrategyFast through the Verifier
// facade reports the fast rung when the frontline decides, climbs to the
// specialists and the exact search when it is inconclusive, and runs
// like plain auto under the WithoutFastPath ablation.
func TestStrategyFastFacade(t *testing.T) {
	easy := memory.NewExecution(
		memory.History{memory.W(0, 1)},
		memory.History{memory.R(0, 1)},
	).SetInitial(0, 0)
	v := NewVerifier(solver.WithStrategy(solver.StrategyFast))
	ar, err := v.SolveAddr(context.Background(), easy, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Rung != RungFast || ar.Result.Algorithm != "fastpath" {
		t.Errorf("rung=%s algorithm=%q, want fast/fastpath", ar.Rung, ar.Result.Algorithm)
	}
	if ar.Stats.Rung != int(RungFast) {
		t.Errorf("Stats.Rung = %d, want %d", ar.Stats.Rung, int(RungFast))
	}

	// Inconclusive instance: the strategy escalates to auto and still
	// decides — the answer never gets worse, only slower.
	ambiguous := memory.NewExecution(
		memory.History{memory.W(0, 1)},
		memory.History{memory.W(0, 2)},
		memory.History{memory.R(0, 1), memory.R(0, 2), memory.R(0, 1)},
	).SetInitial(0, 0)
	r, err := v.Solve(context.Background(), ambiguous, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Coherent || r.Algorithm == "fastpath" {
		t.Errorf("escalation: coherent=%v algorithm=%q, want incoherent from a complete solver", r.Coherent, r.Algorithm)
	}

	// Ablation: the same strategy without the frontline is plain auto.
	ablated := NewVerifier(
		solver.WithStrategy(solver.StrategyFast),
		solver.WithBudget(solver.WithoutFastPath()),
	)
	ar, err = ablated.SolveAddr(context.Background(), easy, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Result.Algorithm == "fastpath" {
		t.Error("WithoutFastPath still ran the frontline")
	}
}

// TestFastPathRelayFamily pins the benchmark family's semantics at test
// scale: the coherent relay is accepted with a valid certificate, the
// phantom variant is rejected, and both verdicts match the exact solver
// — the small-scale version of the BENCH_PR9 crossover evidence.
func TestFastPathRelayFamily(t *testing.T) {
	exact := solver.New(solver.WithoutFastPath())
	for _, phantom := range []bool{false, true} {
		exec := workload.GenerateRelay(workload.RelayConfig{Processors: 4, Rounds: 12, Decoys: 4, Phantom: phantom})
		out := fastOn(t, exec)
		want, err := NewVerifier(solver.WithOptions(exact)).Solve(context.Background(), exec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if out.verdict == fastInconclusive {
			t.Fatalf("phantom=%v: frontline inconclusive (%s) on its own benchmark family", phantom, out.detail)
		}
		if out.result.Coherent != want.Coherent {
			t.Fatalf("phantom=%v: fast says %v, exact says %v", phantom, out.result.Coherent, want.Coherent)
		}
		if out.verdict == fastAccept {
			if err := memory.CheckCoherent(exec, 0, out.result.Schedule); err != nil {
				t.Fatalf("invalid certificate: %v", err)
			}
		}
	}
}
