package reduction

import (
	"context"
	"math/rand"
	"testing"

	"memverify/internal/coherence"
	"memverify/internal/memory"
	"memverify/internal/sat"
	"memverify/internal/solver"
)

func TestRestrictedMeetsFigure51Bounds(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 60; i++ {
		q := smallFormula(rng, 5, 6)
		inst, err := ThreeSATToVMCRestricted(q)
		if err != nil {
			t.Fatal(err)
		}
		r := Measure(inst.Exec, inst.Addr)
		if r.MaxOpsPerProcess > 3 {
			t.Fatalf("instance %d: %d ops in one process, Figure 5.1 allows 3\n%s",
				i, r.MaxOpsPerProcess, q)
		}
		if r.MaxWritesPerValue > 2 {
			t.Fatalf("instance %d: a value written %d times, Figure 5.1 allows 2\n%s",
				i, r.MaxWritesPerValue, q)
		}
	}
}

func TestRestrictedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	satSeen, unsatSeen := 0, 0
	for i := 0; i < 80; i++ {
		q := smallFormula(rng, 3, 3)
		want, err := sat.SolveBrute(q)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := ThreeSATToVMCRestricted(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), inst.Exec, inst.Addr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Coherent != want.Satisfiable {
			t.Fatalf("instance %d: coherent=%v satisfiable=%v\nformula: %s",
				i, res.Coherent, want.Satisfiable, q)
		}
		if res.Coherent {
			satSeen++
			if err := memory.CheckCoherent(inst.Exec, inst.Addr, res.Schedule); err != nil {
				t.Fatalf("instance %d: invalid certificate: %v", i, err)
			}
			asg, err := inst.DecodeAssignment(res.Schedule)
			if err != nil {
				t.Fatal(err)
			}
			if !asg.Satisfies(q) {
				t.Fatalf("instance %d: decoded assignment %v does not satisfy %s", i, asg, q)
			}
		} else {
			unsatSeen++
		}
	}
	if satSeen == 0 || unsatSeen == 0 {
		t.Errorf("degenerate sample: %d sat, %d unsat", satSeen, unsatSeen)
	}
}

func TestRestrictedRejectsWideClauses(t *testing.T) {
	q := sat.NewFormula(sat.Clause{1, 2, 3, 4})
	if _, err := ThreeSATToVMCRestricted(q); err == nil {
		t.Error("clause of width 4 accepted; ToThreeSAT should be required")
	}
}

func TestRestrictedViaToThreeSAT(t *testing.T) {
	// Wide clauses handled by converting first.
	q := sat.NewFormula(sat.Clause{1, 2, 3, 4}, sat.Clause{-1, -2, -3, -4})
	three := sat.ToThreeSAT(q)
	inst, err := ThreeSATToVMCRestricted(three)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), inst.Exec, inst.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Coherent {
		t.Error("satisfiable wide formula judged incoherent after conversion")
	}
}

func TestRestrictedEmptyClause(t *testing.T) {
	q := &sat.Formula{NumVars: 1, Clauses: []sat.Clause{{1}, {}}}
	inst, err := ThreeSATToVMCRestricted(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), inst.Exec, inst.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coherent {
		t.Error("formula with an empty clause judged coherent")
	}
}

func TestRestrictedNoClauses(t *testing.T) {
	q := &sat.Formula{NumVars: 2}
	inst, err := ThreeSATToVMCRestricted(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), inst.Exec, inst.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Coherent {
		t.Error("clause-free formula (trivially satisfiable) judged incoherent")
	}
}

func TestRMWMeetsFigure52Bounds(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 60; i++ {
		q := smallFormula(rng, 5, 6)
		inst, err := ThreeSATToVMCRMW(q)
		if err != nil {
			t.Fatal(err)
		}
		r := Measure(inst.Exec, inst.Addr)
		if !r.AllRMW {
			t.Fatalf("instance %d: non-RMW operation present", i)
		}
		if r.MaxOpsPerProcess > 2 {
			t.Fatalf("instance %d: %d RMWs in one process, Figure 5.2 allows 2\n%s",
				i, r.MaxOpsPerProcess, q)
		}
		if r.MaxWritesPerValue > 3 {
			t.Fatalf("instance %d: a value written %d times, Figure 5.2 allows 3\n%s",
				i, r.MaxWritesPerValue, q)
		}
	}
}

func TestRMWEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	satSeen, unsatSeen := 0, 0
	for i := 0; i < 60; i++ {
		q := smallFormula(rng, 3, 3)
		want, err := sat.SolveBrute(q)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := ThreeSATToVMCRMW(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), inst.Exec, inst.Addr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Coherent != want.Satisfiable {
			t.Fatalf("instance %d: coherent=%v satisfiable=%v\nformula: %s",
				i, res.Coherent, want.Satisfiable, q)
		}
		if res.Coherent {
			satSeen++
			if err := memory.CheckCoherent(inst.Exec, inst.Addr, res.Schedule); err != nil {
				t.Fatalf("instance %d: invalid certificate: %v", i, err)
			}
			asg, err := inst.DecodeAssignment(res.Schedule)
			if err != nil {
				t.Fatal(err)
			}
			if !asg.Satisfies(q) {
				t.Fatalf("instance %d: decoded assignment %v does not satisfy %s", i, asg, q)
			}
		} else {
			unsatSeen++
		}
	}
	if satSeen == 0 || unsatSeen == 0 {
		t.Errorf("degenerate sample: %d sat, %d unsat", satSeen, unsatSeen)
	}
}

func TestRMWEmptyClause(t *testing.T) {
	q := &sat.Formula{NumVars: 1, Clauses: []sat.Clause{{1}, {}}}
	inst, err := ThreeSATToVMCRMW(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), inst.Exec, inst.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coherent {
		t.Error("formula with an empty clause judged coherent")
	}
}

func TestRMWNoClauses(t *testing.T) {
	q := &sat.Formula{NumVars: 2}
	inst, err := ThreeSATToVMCRMW(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), inst.Exec, inst.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Coherent {
		t.Error("clause-free formula judged incoherent")
	}
}

func TestRMWRejectsWideClauses(t *testing.T) {
	q := sat.NewFormula(sat.Clause{1, 2, 3, 4})
	if _, err := ThreeSATToVMCRMW(q); err == nil {
		t.Error("clause of width 4 accepted")
	}
}

// The RMW instance respects the Eulerian degree balance that makes every
// complete schedule a value chain: each value's write count equals its
// read count, except the initial (read once more) and final (written
// once more) values.
func TestRMWDegreeBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 40; i++ {
		q := smallFormula(rng, 4, 5)
		inst, err := ThreeSATToVMCRMW(q)
		if err != nil {
			t.Fatal(err)
		}
		writes := make(map[memory.Value]int)
		reads := make(map[memory.Value]int)
		for _, h := range inst.Exec.Histories {
			for _, o := range h {
				writes[o.Store]++
				reads[o.Data]++
			}
		}
		init := inst.Exec.Initial[inst.Addr]
		final := inst.Exec.Final[inst.Addr]
		all := make(map[memory.Value]bool)
		for v := range writes {
			all[v] = true
		}
		for v := range reads {
			all[v] = true
		}
		for v := range all {
			expect := writes[v]
			if v == init {
				expect++
			}
			if v == final {
				expect--
			}
			if reads[v] != expect {
				t.Fatalf("instance %d: value %d has %d reads, %d writes (init=%d final=%d)\nformula: %s",
					i, v, reads[v], writes[v], init, final, q)
			}
		}
	}
}
