package reduction

import (
	"context"
	"math/rand"
	"testing"

	"memverify/internal/coherence"
	"memverify/internal/consistency"
	"memverify/internal/memory"
	"memverify/internal/sat"
	"memverify/internal/solver"
)

// smallFormula draws a random CNF small enough for the exponential
// solvers on the reduced instances.
func smallFormula(rng *rand.Rand, maxVars, maxClauses int) *sat.Formula {
	nvars := 1 + rng.Intn(maxVars)
	nclauses := rng.Intn(maxClauses + 1)
	f := &sat.Formula{NumVars: nvars}
	for j := 0; j < nclauses; j++ {
		clen := 1 + rng.Intn(3)
		c := make(sat.Clause, 0, clen)
		for k := 0; k < clen; k++ {
			l := sat.Lit(1 + rng.Intn(nvars))
			if rng.Intn(2) == 0 {
				l = l.Neg()
			}
			c = append(c, l)
		}
		f.Clauses = append(f.Clauses, c)
	}
	return f
}

func TestSATToVMCFigure42Example(t *testing.T) {
	// Q = u: one variable, one unit clause.
	q := sat.NewFormula(sat.Clause{1})
	inst, err := SATToVMC(q)
	if err != nil {
		t.Fatal(err)
	}
	// 2m+3 histories for m=1: 5.
	if got := len(inst.Exec.Histories); got != 5 {
		t.Errorf("histories = %d, want 5 (2m+3)", got)
	}
	res, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), inst.Exec, inst.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Coherent {
		t.Fatal("instance for satisfiable Q=u judged incoherent")
	}
	asg, err := inst.DecodeAssignment(res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if !asg.Satisfies(q) {
		t.Errorf("decoded assignment %v does not satisfy Q=u", asg)
	}
	if !asg[1] {
		t.Error("Q=u forces u=true; decoder disagreed")
	}
}

func TestSATToVMCUnsatisfiable(t *testing.T) {
	// u ∧ ¬u.
	q := sat.NewFormula(sat.Clause{1}, sat.Clause{-1})
	inst, err := SATToVMC(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), inst.Exec, inst.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coherent {
		t.Error("instance for unsatisfiable formula judged coherent")
	}
}

func TestSATToVMCSizeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		q := smallFormula(rng, 6, 8)
		inst, err := SATToVMC(q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(inst.Exec.Histories), 2*q.NumVars+3; got != want {
			t.Errorf("instance %d: %d histories, want %d", i, got, want)
		}
		// Exact count: h1,h2 have m ops each, h3 has n+2m, literal
		// histories have 4m reads plus one write per clause occurrence
		// (≤ 3n here): 8m + n + occ ≤ 8m + 4n, which is O(mn).
		if got := inst.Exec.NumOps(); got > 8*q.NumVars+4*len(q.Clauses) {
			t.Errorf("instance %d: %d ops exceeds the 8m+4n bound (m=%d n=%d)",
				i, got, q.NumVars, len(q.Clauses))
		}
	}
}

// The central equivalence of Lemma 4.3, machine-checked: SAT(Q) iff the
// reduced instance has a coherent schedule; and a decoded certificate
// satisfies Q.
func TestSATToVMCEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	satSeen, unsatSeen := 0, 0
	for i := 0; i < 120; i++ {
		q := smallFormula(rng, 3, 4)
		want, err := sat.SolveBrute(q)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := SATToVMC(q)
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

// Encoding direction: a satisfying assignment yields a coherent schedule
// (we let the solver find it), and equivalence also holds via the CDCL
// solver instead of brute force.
func TestSATToVMCAgainstCDCL(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		q := smallFormula(rng, 3, 4)
		want, err := sat.SolveCDCL(q)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := SATToVMC(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), inst.Exec, inst.Addr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Coherent != want.Satisfiable {
			t.Fatalf("instance %d: coherent=%v CDCL=%v\n%s", i, res.Coherent, want.Satisfiable, q)
		}
	}
}

func TestSATToVMCRejectsInvalidFormula(t *testing.T) {
	bad := &sat.Formula{NumVars: 1, Clauses: []sat.Clause{{0}}}
	if _, err := SATToVMC(bad); err == nil {
		t.Error("invalid formula accepted")
	}
}

func TestSATToVMCSynchronizedDiscipline(t *testing.T) {
	q := sat.NewFormula(sat.Clause{1, -2}, sat.Clause{2})
	inst, err := SATToVMCSynchronized(q)
	if err != nil {
		t.Fatal(err)
	}
	if d := consistency.CheckDiscipline(inst.Exec); d != consistency.FullySynchronized {
		t.Fatalf("discipline = %v, want fully synchronized", d)
	}
}

// Figure 6.1: LRC verification of the synchronized instance decides SAT.
func TestSATToVMCSynchronizedLRCEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 60; i++ {
		q := smallFormula(rng, 3, 4)
		want, err := sat.SolveBrute(q)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := SATToVMCSynchronized(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := consistency.NewVerifier(consistency.LRC).Verify(context.Background(), inst.Exec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Consistent != want.Satisfiable {
			t.Fatalf("instance %d: LRC=%v satisfiable=%v\n%s", i, res.Consistent, want.Satisfiable, q)
		}
	}
}

// The synchronized wrap must preserve the decoder refs.
func TestSATToVMCSynchronizedDecode(t *testing.T) {
	q := sat.NewFormula(sat.Clause{1}, sat.Clause{-2})
	inst, err := SATToVMCSynchronized(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), inst.Exec, inst.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Coherent {
		t.Fatal("satisfiable synchronized instance judged incoherent")
	}
	asg, err := inst.DecodeAssignment(res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if !asg.Satisfies(q) {
		t.Errorf("decoded assignment %v does not satisfy %s", asg, q)
	}
}

func TestMeasure(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.W(0, 1), memory.R(0, 1)},
		memory.History{memory.RW(0, 1, 2)},
	)
	r := Measure(exec, 0)
	if r.Histories != 2 || r.Operations != 4 || r.MaxOpsPerProcess != 3 {
		t.Errorf("Measure = %+v", r)
	}
	if r.MaxWritesPerValue != 2 {
		t.Errorf("MaxWritesPerValue = %d, want 2", r.MaxWritesPerValue)
	}
	if r.AllRMW {
		t.Error("AllRMW should be false")
	}
	rmwOnly := memory.NewExecution(memory.History{memory.RW(0, 0, 1)})
	if !Measure(rmwOnly, 0).AllRMW {
		t.Error("AllRMW should be true")
	}
}
