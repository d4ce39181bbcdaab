package coherence

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// solveResilient runs the resilient preset on one address, with an
// optional write-order hint and budget options.
func solveResilient(ctx context.Context, exec *memory.Execution, addr memory.Addr, order []memory.Ref, budget ...solver.Option) (*AddrReport, error) {
	return NewVerifier(solver.WithStrategy(solver.StrategyResilient),
		solver.WithWriteOrders(map[memory.Addr][]memory.Ref{addr: order}),
		solver.WithBudget(budget...)).SolveAddr(ctx, exec, addr)
}

func TestResilientExactRung(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1)},
		memory.History{memory.R(0, 1)},
	).SetInitial(0, 0)
	// The frontline is ablated so the test pins the exact rung itself;
	// TestResilientFastRung covers the default path.
	rr, err := solveResilient(context.Background(), exec, 0, nil, solver.WithoutFastPath())
	if err != nil {
		t.Fatal(err)
	}
	if rr.Verdict != VerdictCoherent || rr.Rung != RungExact {
		t.Errorf("easy instance: verdict=%s rung=%s, want coherent at exact", rr.Verdict, rr.Rung)
	}
	if rr.Stats.Rung != 0 {
		t.Errorf("Stats.Rung = %d, want 0 for the exact rung", rr.Stats.Rung)
	}
}

// TestResilientSpecialistDecides: the exact search trips its budget, but
// the instance has few writes, so exhaustive write-order enumeration
// (the §5.2 algorithm over every order) still decides — both ways.
func TestResilientSpecialistDecides(t *testing.T) {
	budget := []solver.Option{solver.WithMaxStates(3), solver.WithoutFastPath()}

	rr, err := solveResilient(context.Background(), hardExecution(), 0, nil, budget...)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Verdict != VerdictIncoherent || rr.Rung != RungSpecialist {
		t.Fatalf("verdict=%s rung=%s, want incoherent at specialist", rr.Verdict, rr.Rung)
	}
	if rr.Stats.Rung != int(RungSpecialist) {
		t.Errorf("Stats.Rung = %d, want %d", rr.Stats.Rung, int(RungSpecialist))
	}

	// Coherent case, certificate checked: Figure 4.2 has 5 writes.
	exec := figure42Instance()
	rr, err = solveResilient(context.Background(), exec, 0, nil, budget...)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Verdict != VerdictCoherent || rr.Rung != RungSpecialist {
		t.Fatalf("figure 4.2: verdict=%s rung=%s, want coherent at specialist", rr.Verdict, rr.Rung)
	}
	if err := memory.CheckCoherent(exec, 0, rr.Result.Schedule); err != nil {
		t.Errorf("specialist certificate invalid: %v", err)
	}
}

// manyWriteExecution has more writes than the enumeration rung accepts
// (and repeated values, so no Figure 5.3 row applies). It is coherent by
// construction — the emission order is a witness — which the ladder
// cannot prove, making it the canonical Unknown case.
func manyWriteExecution() *memory.Execution {
	rng := rand.New(rand.NewSource(7))
	const nproc = 4
	exec := &memory.Execution{Histories: make([]memory.History, nproc)}
	exec.SetInitial(0, 0)
	cur := memory.Value(0)
	for i := 0; i < 48; i++ {
		p := rng.Intn(nproc)
		if rng.Intn(2) == 0 {
			cur = memory.Value(1 + rng.Intn(3))
			exec.Histories[p] = append(exec.Histories[p], memory.W(0, cur))
		} else {
			exec.Histories[p] = append(exec.Histories[p], memory.R(0, cur))
		}
	}
	return exec
}

// TestResilientUnknown is the degradation acceptance test: budget
// exhausted, no rung decides, and the caller gets Verdict Unknown with
// the rung recorded in Stats — not an error.
func TestResilientUnknown(t *testing.T) {
	exec := manyWriteExecution()
	rr, err := solveResilient(context.Background(), exec, 0, nil, solver.WithMaxStates(10))
	if err != nil {
		t.Fatal(err)
	}
	if rr.Verdict != VerdictUnknown || rr.Rung != RungNecessary {
		t.Fatalf("verdict=%s rung=%s, want unknown at necessary", rr.Verdict, rr.Rung)
	}
	if rr.Stats.Rung != int(RungNecessary) {
		t.Errorf("Stats.Rung = %d, want %d", rr.Stats.Rung, int(RungNecessary))
	}
	if len(rr.Checks) == 0 {
		t.Error("Unknown verdict carries no necessary-condition evidence")
	}
	if rr.Result != nil {
		t.Errorf("Unknown verdict should carry no Result, got %+v", rr.Result)
	}
	if rr.Stats.States == 0 {
		t.Error("partial exact-search stats lost in aggregation")
	}
}

// TestNecessaryRungBeyondFastPath pins why the necessary rung stays on
// the ladder: it refutes instances the fast path leaves inconclusive.
// On seeded corpora of 70,900 small traces (20,000 GenerateCoherent
// traces, two thirds mutated by Inject; 50,000 randomInstance draws;
// 300 random 3-CNF formulas reduced by Figures 4.1, 5.1 and 5.2), the
// fast path refuted all but 8 to 10 of the roughly 17,800 addresses the
// necessary conditions refute, and unique-write-contiguity refuted
// every one of those. This is the smallest one found: P2 reads the
// once-written 1, then 0, then 1 again, which needs a second write of 1.
func TestNecessaryRungBeyondFastPath(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 0), memory.R(0, 0)},
		memory.History{memory.R(0, 1), memory.W(0, 0), memory.R(0, 0)},
		memory.History{memory.W(0, 1), memory.R(0, 1), memory.R(0, 0), memory.R(0, 1)},
	).SetInitial(0, 0).SetFinal(0, 0)
	if out := fastOn(t, exec); out.verdict != fastInconclusive {
		t.Fatalf("fast path: %s (%s), want inconclusive", out.verdict, out.detail)
	}
	if _, violated := necessaryConditions(project(exec, 0)); violated != "unique-write-contiguity" {
		t.Fatalf("necessary conditions: violated %q, want unique-write-contiguity", violated)
	}
	res, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), exec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coherent {
		t.Fatalf("exact search accepted with %v", res.Schedule)
	}
	if ok, sched := bruteForceCoherent(exec, 0); ok {
		t.Fatalf("brute force accepted with %v", sched)
	}
}

// TestResilientNecessaryRefutes: even past the enumeration rung, sound
// necessary conditions can still refute.
func TestResilientNecessaryRefutes(t *testing.T) {
	exec := manyWriteExecution()
	// Append a read of a value nothing ever writes (init is declared 0,
	// so the unwritten-read-values condition fires).
	exec.Histories[0] = append(exec.Histories[0], memory.R(0, 9999))
	// Ablate the frontline (which refutes this outright — see the
	// fastpath tests) so the necessary-conditions rung stays exercised.
	rr, err := solveResilient(context.Background(), exec, 0, nil, solver.WithMaxStates(10), solver.WithoutFastPath())
	if err != nil {
		t.Fatal(err)
	}
	if rr.Verdict != VerdictIncoherent || rr.Rung != RungNecessary {
		t.Fatalf("verdict=%s rung=%s, want incoherent at necessary", rr.Verdict, rr.Rung)
	}
	found := false
	for _, ch := range rr.Checks {
		if strings.Contains(ch, "unwritten-read-values") && strings.Contains(ch, "FAIL") {
			found = true
		}
	}
	if !found {
		t.Errorf("no failing unwritten-read-values check in %v", rr.Checks)
	}
}

// TestResilientWriteOrderHint: with a caller-supplied write order, the
// ladder's first rung proves coherence polynomially after the exact
// search exhausts.
func TestResilientWriteOrderHint(t *testing.T) {
	exec := figure42Instance()
	// Derive a valid write order from an unbudgeted solve's certificate.
	fresh, err := NewVerifier().Solve(context.Background(), exec, 0)
	if err != nil || !fresh.Coherent {
		t.Fatalf("baseline solve: %v, %+v", err, fresh)
	}
	var order []memory.Ref
	for _, r := range fresh.Schedule {
		if _, ok := exec.Op(r).Writes(); ok {
			order = append(order, r)
		}
	}
	rr, err := solveResilient(context.Background(), exec, 0, order, solver.WithMaxStates(2), solver.WithoutFastPath())
	if err != nil {
		t.Fatal(err)
	}
	if rr.Verdict != VerdictCoherent || rr.Rung != RungWriteOrder {
		t.Fatalf("verdict=%s rung=%s, want coherent at write-order", rr.Verdict, rr.Rung)
	}
	if err := memory.CheckCoherent(exec, 0, rr.Result.Schedule); err != nil {
		t.Errorf("write-order certificate invalid: %v", err)
	}
}

// TestResilientCancelPropagates: cancellation is a request to stop, not
// to degrade — the ladder must not keep working.
func TestResilientCancelPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := solveResilient(ctx, manyWriteExecution(), 0, nil)
	be, ok := solver.AsBudgetError(err)
	if !ok || be.Reason != solver.Canceled {
		t.Fatalf("err = %v, want Canceled budget error", err)
	}
}

// TestVerifyExecutionResilient: under the resilient preset, budget
// exhaustion on one address must not abort Verify's loop — every address
// gets a verdict (possibly Unknown).
func TestVerifyExecutionResilient(t *testing.T) {
	hard := manyWriteExecution()
	exec := &memory.Execution{Histories: make([]memory.History, len(hard.Histories))}
	copy(exec.Histories, hard.Histories)
	exec.SetInitial(0, 0)
	// A second, trivial address.
	exec.Histories[0] = append(memory.History{memory.W(1, 5)}, exec.Histories[0]...)
	exec.Histories[1] = append(memory.History{memory.R(1, 5)}, exec.Histories[1]...)
	exec.SetInitial(1, 0)

	rep, err := NewVerifier(solver.WithStrategy(solver.StrategyResilient),
		solver.WithBudget(solver.WithMaxStates(10))).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Addrs) != 2 {
		t.Fatalf("results for %d addresses, want 2", len(rep.Addrs))
	}
	if rep.Addrs[1].Verdict != VerdictCoherent {
		t.Errorf("trivial address verdict = %s", rep.Addrs[1].Verdict)
	}
	if rep.Addrs[0].Verdict != VerdictUnknown {
		t.Errorf("hard address verdict = %s, want unknown", rep.Addrs[0].Verdict)
	}
}
