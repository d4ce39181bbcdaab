package reduction_test

import (
	"context"
	"fmt"

	"memverify/internal/coherence"
	"memverify/internal/reduction"
	"memverify/internal/sat"
	"memverify/internal/solver"
)

// Deciding SAT by deciding memory coherence (Figure 4.1 / Lemma 4.3).
func ExampleSATToVMC() {
	q := sat.NewFormula(sat.Clause{1, 2}, sat.Clause{-1})
	inst, err := reduction.SATToVMC(q)
	if err != nil {
		panic(err)
	}
	res, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), inst.Exec, inst.Addr)
	if err != nil {
		panic(err)
	}
	fmt.Println("coherent:", res.Coherent)
	asg, err := inst.DecodeAssignment(res.Schedule)
	if err != nil {
		panic(err)
	}
	fmt.Println("satisfies:", asg.Satisfies(q))
	// Output:
	// coherent: true
	// satisfies: true
}

// The restricted construction of Figure 5.1 stays within three
// operations per process and two writes per value.
func ExampleThreeSATToVMCRestricted() {
	q := sat.NewFormula(sat.Clause{1, -2, 3})
	inst, err := reduction.ThreeSATToVMCRestricted(q)
	if err != nil {
		panic(err)
	}
	r := reduction.Measure(inst.Exec, inst.Addr)
	fmt.Println(r.MaxOpsPerProcess <= 3, r.MaxWritesPerValue <= 2)
	// Output: true true
}
