package coherence

import (
	"context"
	"math/rand"
	"testing"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

func TestDiagnoseRejectsCoherent(t *testing.T) {
	e := memory.NewExecution(
		memory.History{memory.W(0, 1)},
		memory.History{memory.R(0, 1)},
	).SetInitial(0, 0)
	if _, err := Diagnose(context.Background(), e, 0, nil); err == nil {
		t.Error("coherent execution diagnosed")
	}
}

func TestDiagnoseShrinksToCore(t *testing.T) {
	// A large coherent execution plus one unsourced read. The core must
	// shrink to (roughly) just that read.
	e := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.R(0, 1), memory.W(0, 2), memory.R(0, 2)},
		memory.History{memory.R(0, 1), memory.R(0, 2), memory.R(0, 99)},
	).SetInitial(0, 0)
	d, err := Diagnose(context.Background(), e, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Core.NumMemoryOps(); got != 1 {
		t.Errorf("core has %d ops, want 1 (the unsourced read)\ncore: %v", got, d.Core.Histories)
	}
	if len(d.Ops) != 1 || d.Ops[0] != (memory.Ref{Proc: 1, Index: 2}) {
		t.Errorf("core ops = %v, want [P1[2]]", d.Ops)
	}
	if d.FinalValueInvolved {
		t.Error("final value reported involved; none declared")
	}
}

func TestDiagnoseFinalValueInvolvement(t *testing.T) {
	// Incoherent only because of the final value.
	e := memory.NewExecution(
		memory.History{memory.W(0, 1)},
	).SetInitial(0, 0).SetFinal(0, 9)
	d, err := Diagnose(context.Background(), e, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !d.FinalValueInvolved {
		t.Error("final value should be part of the core")
	}
}

// Property: the core is incoherent, is a sub-execution of the original,
// and removing any single remaining op restores coherence
// (1-minimality).
func TestDiagnoseMinimality(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	diagnosed := 0
	for i := 0; i < 200 && diagnosed < 40; i++ {
		exec := randomInstance(rng)
		res, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), exec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Coherent {
			continue
		}
		diagnosed++
		d, err := Diagnose(context.Background(), exec, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Core is incoherent.
		coreRes, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), d.Core, 0)
		if err != nil {
			t.Fatal(err)
		}
		if coreRes.Coherent {
			t.Fatalf("instance %d: core is coherent\ncore: %v", i, d.Core.Histories)
		}
		// Ops refer to identical operations in the original.
		pos := 0
		for p := range d.Core.Histories {
			for idx := range d.Core.Histories[p] {
				ref := d.Ops[pos]
				pos++
				if exec.Op(ref) != d.Core.Histories[p][idx] {
					t.Fatalf("instance %d: core op mismatch at %v", i, ref)
				}
			}
		}
		// 1-minimality: dropping any single core op restores coherence.
		for p := range d.Core.Histories {
			for idx := range d.Core.Histories[p] {
				shrunk := d.Core.Clone()
				h := shrunk.Histories[p]
				shrunk.Histories[p] = append(append(memory.History{}, h[:idx]...), h[idx+1:]...)
				r, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), shrunk, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Coherent {
					t.Fatalf("instance %d: core not 1-minimal (removing P%d[%d] keeps it incoherent)\ncore: %v",
						i, p, idx, d.Core.Histories)
				}
			}
		}
	}
	if diagnosed < 20 {
		t.Errorf("only %d incoherent instances diagnosed", diagnosed)
	}
}

func TestDiagnoseUndecidedBudget(t *testing.T) {
	e := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.R(0, 2)},
		memory.History{memory.W(0, 2), memory.R(0, 1)},
		memory.History{memory.W(0, 3)},
		memory.History{memory.W(0, 3)},
	).SetInitial(0, 0).SetFinal(0, 9)
	if _, err := Diagnose(context.Background(), e, 0, &Options{MaxStates: 1}); err == nil {
		t.Error("budget-starved diagnosis should error")
	}
}
