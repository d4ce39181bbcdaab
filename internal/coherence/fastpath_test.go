package coherence

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"memverify/internal/memory"
	"memverify/internal/reduction"
	"memverify/internal/sat"
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

// sameFastOutcome fails unless the fast path and its reference
// (fastpath_reference_test.go) give the same verdict, detail and result
// on address a of exec, certificate included.
func sameFastOutcome(t testing.TB, label string, exec *memory.Execution, a memory.Addr) *fastOutcome {
	t.Helper()
	ctx := context.Background()
	got, e1 := fastPath(ctx, exec, project(exec, a), nil)
	want, e2 := refFastPath(ctx, exec, project(exec, a), nil)
	if e1 != nil || e2 != nil {
		t.Fatalf("%s: budget error without a budget: %v / %v", label, e1, e2)
	}
	if got.verdict != want.verdict || got.detail != want.detail || got.stats.States != want.stats.States {
		t.Fatalf("%s: fast path says %s (%q, %d states), reference says %s (%q, %d states)\nhistories=%v init=%v final=%v",
			label, got.verdict, got.detail, got.stats.States, want.verdict, want.detail, want.stats.States,
			exec.Histories, exec.Initial, exec.Final)
	}
	if (got.result == nil) != (want.result == nil) {
		t.Fatalf("%s: result %+v, reference result %+v", label, got.result, want.result)
	}
	if got.result != nil {
		g, w := *got.result, *want.result
		g.Stats.Duration, w.Stats.Duration = 0, 0
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: result %+v, reference result %+v", label, g, w)
		}
	}
	return got
}

// sameWriteOrderResult fails unless writeOrderInstance and its reference
// agree on the error or on the result for one write order in
// projection refs.
func sameWriteOrderResult(t testing.TB, label string, inst *instance, order []memory.Ref) {
	t.Helper()
	got, err1 := writeOrderInstance(inst, order)
	want, err2 := refWriteOrderInstance(inst, order)
	if fmt.Sprint(err1) != fmt.Sprint(err2) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: order %v: placement gives %+v, %v; reference gives %+v, %v", label, order, got, err1, want, err2)
	}
}

// TestFastPathMatchesReference: the fast path's lean tables change no
// answer. On the oracle corpora — random tiny instances, generated
// traces with every injected violation kind, the relay family with and
// without its phantom read, and the Fig 4.1/5.1/5.2 reductions — every
// verdict, REJECT detail and certificate equals the reference checker's.
// The §5.2 placement is held to its reference the same way on recorded
// write orders and on broken ones, error messages included.
func TestFastPathMatchesReference(t *testing.T) {
	var corpus []*memory.Execution
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 500; i++ {
		if exec := randomInstance(rng); exec.Validate() == nil {
			corpus = append(corpus, exec)
		}
	}
	for _, kind := range workload.ViolationKinds() {
		for i := 0; i < 12; i++ {
			exec, _ := workload.GenerateCoherent(rng, workload.GenConfig{
				Processors: 2 + i%3, OpsPerProc: 6 + i, Addresses: 1 + i%3, Values: 3,
				WriteFraction: 0.4, RMWFraction: 0.1 * float64(i%3),
			})
			corpus = append(corpus, exec)
			if mut, err := workload.Inject(rng, exec, kind); err == nil {
				corpus = append(corpus, mut)
			}
		}
	}
	for _, phantom := range []bool{false, true} {
		for _, cfg := range []workload.RelayConfig{
			{Processors: 2, Rounds: 3, Decoys: 0},
			{Processors: 3, Rounds: 4, Decoys: 1},
			{Processors: 4, Rounds: 139, Decoys: 16},
		} {
			cfg.Phantom = phantom
			corpus = append(corpus, workload.GenerateRelay(cfg))
		}
	}
	for i := 0; i < 4; i++ {
		q := sat.RandomKSAT(rng, 3, 3+i, 3)
		for _, build := range []func(*sat.Formula) (*reduction.VMCInstance, error){
			reduction.SATToVMC, reduction.ThreeSATToVMCRestricted, reduction.ThreeSATToVMCRMW,
		} {
			inst, err := build(q)
			if err != nil {
				t.Fatal(err)
			}
			corpus = append(corpus, inst.Exec)
		}
	}

	verdicts := map[fastVerdict]int{}
	for n, exec := range corpus {
		for _, a := range exec.Addresses() {
			label := fmt.Sprintf("instance %d addr %d", n, a)
			out := sameFastOutcome(t, label, exec, a)
			verdicts[out.verdict]++

			// Placement on the certificate's own write order, and on that
			// order broken six ways.
			if out.verdict != fastAccept {
				continue
			}
			inst := project(exec, a)
			var order []memory.Ref
			for _, r := range out.result.Schedule {
				if _, ok := exec.Op(r).Writes(); ok {
					pr, _ := inst.projRef(r)
					order = append(order, pr)
				}
			}
			sameWriteOrderResult(t, label, inst, order)
			if len(order) < 2 {
				continue
			}
			swapped := append([]memory.Ref(nil), order...)
			swapped[0], swapped[len(swapped)-1] = swapped[len(swapped)-1], swapped[0]
			sameWriteOrderResult(t, label+" swapped", inst, swapped)
			sameWriteOrderResult(t, label+" duplicated", inst, append([]memory.Ref{order[1]}, order...))
			sameWriteOrderResult(t, label+" short", inst, order[1:])
			bad := memory.Ref{Proc: 0, Index: 1 << 20}
			sameWriteOrderResult(t, label+" out of range", inst, append(order[:1:1], bad))
			sameWriteOrderResult(t, label+" duplicated then out of range", inst, append(order[:1:1], order[0], bad))
			for p, h := range inst.hist {
				for i, o := range h {
					if _, ok := o.Writes(); !ok {
						read := memory.Ref{Proc: p, Index: i}
						sameWriteOrderResult(t, label+" lists a read", inst, append(order[:1:1], read, order[1]))
					}
				}
			}
		}
	}
	for _, v := range []fastVerdict{fastAccept, fastReject, fastInconclusive} {
		if verdicts[v] == 0 {
			t.Errorf("no instance reached verdict %s: %v", v, verdicts)
		}
	}
}

// Fuzzed fast-path instances are single-address and small enough for
// the brute-force oracle when they have at most fuzzFastOracleOps ops.
const (
	fuzzFastProcs     = 4
	fuzzFastOps       = 6
	fuzzFastValues    = 4
	fuzzFastOracleOps = 10
)

// decodeFastInstance maps fuzz bytes to a single-address execution. Byte
// 0 picks the process count; then per process a length byte and one byte
// per op (kind = b%3 of R, W, RMW; value b/3%4; an RMW takes its stored
// value from the next byte); then a flag byte declaring an initial
// (bit 0) and a final (bit 1) value, each taken from the next byte.
// Missing bytes read as zero.
func decodeFastInstance(data []byte) *memory.Execution {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	exec := &memory.Execution{}
	for p := 1 + int(next()%fuzzFastProcs); p > 0; p-- {
		var h memory.History
		for i := int(next() % (fuzzFastOps + 1)); i > 0; i-- {
			b := next()
			v := memory.Value(b / 3 % fuzzFastValues)
			switch b % 3 {
			case 0:
				h = append(h, memory.R(0, v))
			case 1:
				h = append(h, memory.W(0, v))
			default:
				h = append(h, memory.RW(0, v, memory.Value(next()%fuzzFastValues)))
			}
		}
		exec.Histories = append(exec.Histories, h)
	}
	flags := next()
	if flags&1 != 0 {
		exec.SetInitial(0, memory.Value(next()%fuzzFastValues))
	}
	if flags&2 != 0 {
		exec.SetFinal(0, memory.Value(next()%fuzzFastValues))
	}
	return exec
}

// FuzzFastPathAgreement: on fuzzed single-address instances the fast
// path equals its reference (verdict, detail, certificate), every
// ACCEPT's certificate passes memory.CheckCoherent, and every decided
// verdict on at most ten operations matches brute force.
func FuzzFastPathAgreement(f *testing.F) {
	f.Add([]byte{1, 2, 1, 4, 2, 0, 0, 1, 0})                       // W 0, W 1 | R 0, R 0, init 0
	f.Add([]byte{2, 2, 1, 7, 1, 5, 3, 0, 3, 0, 3})                 // three histories, RMW, init+final
	f.Add([]byte{0, 3, 2, 1, 2, 2, 0, 2, 2})                       // RW 0 1, RW 0 2, R 0, final 2
	f.Add([]byte{3, 6, 1, 4, 7, 10, 0, 3, 6, 0, 3, 6, 9, 1, 1, 0}) // W 0..3, R 0, R 1 | R 0..3, W 0, W 0
	f.Fuzz(func(t *testing.T, data []byte) {
		exec := decodeFastInstance(data)
		if exec.Validate() != nil {
			return
		}
		out := sameFastOutcome(t, "fuzz", exec, 0)
		if out.verdict == fastAccept {
			if err := memory.CheckCoherent(exec, 0, out.result.Schedule); err != nil {
				t.Fatalf("ACCEPT certificate fails: %v\nhistories=%v init=%v final=%v", err, exec.Histories, exec.Initial, exec.Final)
			}
		}
		if out.verdict != fastInconclusive && exec.NumOps() <= fuzzFastOracleOps {
			if want, _ := bruteForceCoherent(exec, 0); want != out.result.Coherent {
				t.Fatalf("fast path says %v (%s), brute force says %v\nhistories=%v init=%v final=%v",
					out.result.Coherent, out.detail, want, exec.Histories, exec.Initial, exec.Final)
			}
		}
	})
}
