package coherence

import (
	"context"
	"math/rand"
	"testing"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// figure42Instance builds the worked example of Figure 4.2: the VMC
// instance for the SAT formula Q = u (one variable, one unit clause).
// Values: du=1, dū=2, dc=3.
func figure42Instance() *memory.Execution {
	const du, dub, dc = 1, 2, 3
	return memory.NewExecution(
		memory.History{memory.W(0, du)},                                    // h1
		memory.History{memory.W(0, dub)},                                   // h2
		memory.History{memory.R(0, du), memory.R(0, dub), memory.W(0, dc)}, // hu
		memory.History{memory.R(0, dub), memory.R(0, du)},                  // hū
		memory.History{memory.R(0, dc), memory.W(0, du), memory.W(0, dub)}, // h3
	).SetInitial(0, 0)
}

func TestSolveFigure42Coherent(t *testing.T) {
	exec := figure42Instance()
	res, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), exec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided || !res.Coherent {
		t.Fatalf("Figure 4.2 instance should be coherent (Q=u is satisfiable): %+v", res)
	}
	if err := memory.CheckCoherent(exec, 0, res.Schedule); err != nil {
		t.Errorf("certificate invalid: %v", err)
	}
	// In every coherent schedule W(du) must precede W(dū): verify for the
	// returned certificate by locating h1's and h2's writes.
	var posU, posUbar int = -1, -1
	for i, r := range res.Schedule {
		if r.Proc == 0 {
			posU = i
		}
		if r.Proc == 1 {
			posUbar = i
		}
	}
	if posU == -1 || posUbar == -1 || posU > posUbar {
		t.Errorf("certificate should order W(du) before W(dū); schedule: %s", res.Schedule.Format(exec))
	}
}

// figure42Unsat corresponds to Q = u ∧ ¬u: both literal histories must be
// satisfied before h3 runs, forcing both write orders at once.
func TestSolveUnsatisfiableInstance(t *testing.T) {
	const du, dub, dc1, dc2 = 1, 2, 3, 4
	exec := memory.NewExecution(
		memory.History{memory.W(0, du)},
		memory.History{memory.W(0, dub)},
		memory.History{memory.R(0, du), memory.R(0, dub), memory.W(0, dc1)},                   // literal u, clause c1
		memory.History{memory.R(0, dub), memory.R(0, du), memory.W(0, dc2)},                   // literal ū, clause c2
		memory.History{memory.R(0, dc1), memory.R(0, dc2), memory.W(0, du), memory.W(0, dub)}, // h3
	).SetInitial(0, 0)
	res, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), exec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided || res.Coherent {
		t.Fatalf("instance for Q = u ∧ ¬u should be incoherent: %+v", res)
	}
}

func TestSolveTrivialCases(t *testing.T) {
	// Empty execution.
	res, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), memory.NewExecution(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Coherent {
		t.Error("empty execution should be coherent")
	}

	// Single read of the declared initial value.
	e := memory.NewExecution(memory.History{memory.R(0, 5)}).SetInitial(0, 5)
	res, err = NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Coherent {
		t.Error("read of initial value should be coherent")
	}

	// Single read of a never-written, non-initial value.
	e = memory.NewExecution(memory.History{memory.R(0, 5)}).SetInitial(0, 4)
	res, err = NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coherent {
		t.Error("read of unwritten non-initial value should be incoherent")
	}
}

func TestSolveFinalValue(t *testing.T) {
	e := memory.NewExecution(
		memory.History{memory.W(0, 1)},
		memory.History{memory.W(0, 2)},
	).SetFinal(0, 1)
	res, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Coherent {
		t.Fatal("writes can be ordered to end on the final value")
	}
	if err := memory.CheckCoherent(e, 0, res.Schedule); err != nil {
		t.Errorf("certificate invalid: %v", err)
	}

	e.SetFinal(0, 3)
	res, err = NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coherent {
		t.Error("no write stores the final value; should be incoherent")
	}
}

func TestSolveRMWChain(t *testing.T) {
	e := memory.NewExecution(
		memory.History{memory.RW(0, 0, 1)},
		memory.History{memory.RW(0, 1, 2)},
		memory.History{memory.RW(0, 2, 3)},
	).SetInitial(0, 0).SetFinal(0, 3)
	res, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Coherent {
		t.Fatal("RMW chain should be coherent")
	}
	if err := memory.CheckCoherent(e, 0, res.Schedule); err != nil {
		t.Errorf("certificate invalid: %v", err)
	}

	// Two RMWs that both consume the same value cannot both succeed.
	bad := memory.NewExecution(
		memory.History{memory.RW(0, 0, 1)},
		memory.History{memory.RW(0, 0, 2)},
	).SetInitial(0, 0)
	res, err = NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), bad, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coherent {
		t.Error("two RMWs consuming the same unique value should be incoherent")
	}
}

func TestSolveStateBudget(t *testing.T) {
	// A moderately hard incoherent instance; with a 1-state budget the
	// search must give up with a typed budget error carrying partial
	// stats, not report a definite negative.
	exec := figure42Instance()
	res, err := NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithBudget(solver.WithMaxStates(1))).Solve(context.Background(), exec, 0)
	if err == nil {
		t.Fatalf("budget-limited search returned a verdict (coherent=%v)", res.Coherent)
	}
	be, ok := solver.AsBudgetError(err)
	if !ok {
		t.Fatalf("error is not *solver.ErrBudgetExceeded: %v", err)
	}
	if be.Reason != solver.ExceededStates {
		t.Errorf("reason = %v, want ExceededStates", be.Reason)
	}
	if be.Stats.States == 0 {
		t.Error("budget error carries no partial stats")
	}
	if !be.HasAddr || be.Addr != 0 {
		t.Errorf("budget error address = %v/%v, want 0", be.Addr, be.HasAddr)
	}
}

func TestSolveAblationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	variants := []*Options{
		nil,
		{DisableMemoization: true},
		{DisableEagerReads: true},
		{DisableMemoization: true, DisableEagerReads: true},
	}
	for i := 0; i < 200; i++ {
		exec := randomInstance(rng)
		want, _ := bruteForceCoherent(exec, 0)
		for vi, opts := range variants {
			res, err := NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithOptions(opts)).Solve(context.Background(), exec, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Decided {
				t.Fatalf("variant %d undecided without budget", vi)
			}
			if res.Coherent != want {
				t.Fatalf("instance %d variant %d: Solve=%v oracle=%v histories=%v init=%v final=%v",
					i, vi, res.Coherent, want, exec.Histories, exec.Initial, exec.Final)
			}
			if res.Coherent {
				if err := memory.CheckCoherent(exec, 0, res.Schedule); err != nil {
					t.Fatalf("instance %d variant %d: invalid certificate: %v", i, vi, err)
				}
			}
		}
	}
}

func TestSolveMatchesOracleOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	coherentSeen, incoherentSeen := 0, 0
	for i := 0; i < 500; i++ {
		exec := randomInstance(rng)
		want, _ := bruteForceCoherent(exec, 0)
		res, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), exec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Coherent != want {
			t.Fatalf("instance %d: Solve=%v oracle=%v histories=%v init=%v final=%v",
				i, res.Coherent, want, exec.Histories, exec.Initial, exec.Final)
		}
		if want {
			coherentSeen++
		} else {
			incoherentSeen++
		}
	}
	if coherentSeen == 0 || incoherentSeen == 0 {
		t.Errorf("generator is degenerate: %d coherent, %d incoherent", coherentSeen, incoherentSeen)
	}
}

func TestSolveAutoMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		exec := randomInstance(rng)
		want, _ := bruteForceCoherent(exec, 0)
		res, err := NewVerifier().Solve(context.Background(), exec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Coherent != want {
			t.Fatalf("instance %d (algorithm %s): SolveAuto=%v oracle=%v histories=%v init=%v final=%v",
				i, res.Algorithm, res.Coherent, want, exec.Histories, exec.Initial, exec.Final)
		}
		if res.Coherent {
			if err := memory.CheckCoherent(exec, 0, res.Schedule); err != nil {
				t.Fatalf("instance %d (algorithm %s): invalid certificate: %v", i, res.Algorithm, err)
			}
		}
	}
}

func TestVerifyExecutionPerAddress(t *testing.T) {
	// Address 0 coherent, address 1 incoherent.
	e := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.R(1, 9)},
		memory.History{memory.R(0, 1), memory.W(1, 5)},
	).SetInitial(0, 0).SetInitial(1, 0)
	results, err := verifyMap(context.Background(), e, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Coherent {
		t.Error("address 0 should be coherent")
	}
	if results[1].Coherent {
		t.Error("address 1 should be incoherent (R(1,9) has no source)")
	}
	rep, err := NewVerifier().Verify(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	ok := rep.Coherent()
	bad, _ := rep.FirstViolation()
	if ok || bad != 1 {
		t.Errorf("Coherent = %v at address %d, want false at 1", ok, bad)
	}
}

func TestCoherentAllGood(t *testing.T) {
	e := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.W(1, 2)},
		memory.History{memory.R(0, 1), memory.R(1, 2)},
	).SetInitial(0, 0).SetInitial(1, 0)
	rep, err := NewVerifier().Verify(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Coherent() {
		t.Error("execution should be coherent")
	}
}

func TestSolveStatsPopulated(t *testing.T) {
	exec := figure42Instance()
	res, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), exec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.States == 0 {
		t.Error("search should report visited states")
	}
	if res.Algorithm != "general-search" {
		t.Errorf("Algorithm = %q", res.Algorithm)
	}
}

func TestSolveRejectsInvalidExecution(t *testing.T) {
	bad := memory.NewExecution(memory.History{{Kind: memory.Kind(88)}})
	if _, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), bad, 0); err == nil {
		t.Error("invalid execution accepted")
	}
}

func TestEagerReadsReduceStates(t *testing.T) {
	// A read-heavy coherent trace: the eager rule should visit far fewer
	// states than the ablated search.
	rng := rand.New(rand.NewSource(3))
	exec, _ := randomCoherentTrace(rng, 3, 6, 2)
	withRule, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), exec, 0)
	if err != nil {
		t.Fatal(err)
	}
	without, err := NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithOptions(&Options{DisableEagerReads: true})).Solve(context.Background(), exec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !withRule.Coherent || !without.Coherent {
		t.Fatal("coherent-by-construction trace judged incoherent")
	}
	if withRule.Stats.States > without.Stats.States {
		t.Errorf("eager rule visited %d states, ablation %d — expected fewer or equal",
			withRule.Stats.States, without.Stats.States)
	}
}
