package reduction

import (
	"context"
	"math/rand"
	"testing"

	"memverify/internal/coherence"
	"memverify/internal/consistency"
	"memverify/internal/memory"
	"memverify/internal/sat"
)

// nonEmptyFormula draws formulas whose clauses are all non-empty (the
// VSCC construction's precondition).
func nonEmptyFormula(rng *rand.Rand, maxVars, maxClauses int) *sat.Formula {
	for {
		q := smallFormula(rng, maxVars, maxClauses)
		ok := true
		for _, c := range q.Clauses {
			if len(c) == 0 {
				ok = false
			}
		}
		if ok {
			return q
		}
	}
}

func TestVSCCShape(t *testing.T) {
	q := sat.NewFormula(sat.Clause{1, -2}, sat.Clause{2, 3})
	inst, err := SATToVSCC(q)
	if err != nil {
		t.Fatal(err)
	}
	// 2m+3 histories, m+n+1 addresses.
	if got, want := len(inst.Exec.Histories), 2*q.NumVars+3; got != want {
		t.Errorf("histories = %d, want %d", got, want)
	}
	if got, want := len(inst.Exec.Addresses()), q.NumVars+len(q.Clauses)+1; got != want {
		t.Errorf("addresses = %d, want %d", got, want)
	}
}

// Figure 6.3: the construction is coherent by construction — for every
// formula, satisfiable or not, every address admits a coherent schedule.
func TestVSCCCoherentByConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 80; i++ {
		q := nonEmptyFormula(rng, 4, 5)
		inst, err := SATToVSCC(q)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := coherence.NewVerifier().Verify(context.Background(), inst.Exec)
		if err != nil {
			t.Fatal(err)
		}
		for a, r := range rep.Results() {
			if !r.Decided || !r.Coherent {
				t.Fatalf("instance %d: address %d not coherent (formula %s)", i, a, q)
			}
			if err := memory.CheckCoherent(inst.Exec, a, r.Schedule); err != nil {
				t.Fatalf("instance %d: address %d: invalid certificate: %v", i, a, err)
			}
		}
	}
}

// The headline result of §6.3: the instance is SC iff the formula is
// satisfiable, even though coherence always holds.
func TestVSCCEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	satSeen, unsatSeen := 0, 0
	for i := 0; i < 60; i++ {
		q := nonEmptyFormula(rng, 3, 3)
		want, err := sat.SolveBrute(q)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := SATToVSCC(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := consistency.NewVerifier(consistency.VSCC).Verify(context.Background(), inst.Exec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Consistent != want.Satisfiable {
			t.Fatalf("instance %d: SC=%v satisfiable=%v\nformula: %s",
				i, res.Consistent, want.Satisfiable, q)
		}
		if res.Consistent {
			satSeen++
			if err := memory.CheckSC(inst.Exec, res.Schedule); err != nil {
				t.Fatalf("instance %d: invalid SC certificate: %v", i, err)
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

func TestVSCCRejectsEmptyClause(t *testing.T) {
	q := &sat.Formula{NumVars: 1, Clauses: []sat.Clause{{}}}
	if _, err := SATToVSCC(q); err == nil {
		t.Error("empty clause accepted")
	}
}

func TestVSCCRejectsInvalidFormula(t *testing.T) {
	bad := &sat.Formula{NumVars: 1, Clauses: []sat.Clause{{0}}}
	if _, err := SATToVSCC(bad); err == nil {
		t.Error("invalid formula accepted")
	}
}

func TestVSCCNoClauses(t *testing.T) {
	q := &sat.Formula{NumVars: 2}
	inst, err := SATToVSCC(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := consistency.NewVerifier(consistency.VSCC).Verify(context.Background(), inst.Exec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Error("clause-free instance should be SC")
	}
}
