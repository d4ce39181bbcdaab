// Satbridge: the reductions as a two-way bridge. A SAT formula is
// compiled into a memory trace (Figure 4.1); deciding the trace's
// coherence decides the formula, and the coherent schedule decodes back
// into a satisfying assignment. This is Lemma 4.3 running in both
// directions.
//
// Run with: go run ./examples/satbridge
package main

import (
	"context"
	"fmt"
	"log"

	"memverify/internal/coherence"
	"memverify/internal/reduction"
	"memverify/internal/sat"
	"memverify/internal/solver"
)

func main() {
	// (x1 ∨ ¬x2) ∧ (x2 ∨ x3) ∧ (¬x1 ∨ ¬x3)
	q := sat.NewFormula(
		sat.Clause{1, -2},
		sat.Clause{2, 3},
		sat.Clause{-1, -3},
	)
	fmt.Printf("formula: %s\n\n", q)

	inst, err := reduction.SATToVMC(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reduced to a VMC instance: %d histories, %d operations, 1 address\n",
		len(inst.Exec.Histories), inst.Exec.NumOps())

	// Decide SAT by deciding coherence.
	res, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), inst.Exec, inst.Addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coherent schedule exists: %v  (states searched: %d)\n", res.Coherent, res.Stats.States)
	if res.Coherent {
		asg, err := inst.DecodeAssignment(res.Schedule)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("decoded assignment: %s\n", asg)
		fmt.Printf("assignment satisfies the formula: %v\n\n", asg.Satisfies(q))
	}

	// Cross-check with the CDCL solver directly.
	direct, err := sat.SolveCDCL(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CDCL agrees: satisfiable = %v\n\n", direct.Satisfiable)

	// An unsatisfiable formula becomes an incoherent trace.
	unsat := sat.NewFormula(sat.Clause{1}, sat.Clause{-1})
	inst2, err := reduction.SATToVMC(unsat)
	if err != nil {
		log.Fatal(err)
	}
	res2, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), inst2.Exec, inst2.Addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("formula %s -> coherent: %v (as expected: unsatisfiable)\n", unsat, res2.Coherent)
}
