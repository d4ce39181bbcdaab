package consistency_test

import (
	"context"
	"fmt"

	"memverify/internal/consistency"
	"memverify/internal/memory"
)

// The store-buffering (Dekker) outcome separates the models: forbidden
// under SC, produced by every TSO machine.
func ExampleVerifier_Verify() {
	dekker := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.R(1, 0)},
		memory.History{memory.W(1, 1), memory.R(0, 0)},
	).SetInitial(0, 0).SetInitial(1, 0)

	for _, m := range []consistency.Model{consistency.SC, consistency.TSO, consistency.CoherenceOnly} {
		res, err := consistency.NewVerifier(m).Verify(context.Background(), dekker)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %v\n", m, res.Consistent)
	}
	// Output:
	// SC: false
	// TSO: true
	// Coherence: true
}

// VSCC: the promise problem of §6.3 — the execution must be coherent,
// the question is sequential consistency.
func ExampleVerifier_Verify_vscc() {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.W(1, 1)},
		memory.History{memory.R(1, 1), memory.R(0, 1)},
	).SetInitial(0, 0).SetInitial(1, 0)
	res, err := consistency.NewVerifier(consistency.VSCC).Verify(context.Background(), exec)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Consistent)
	// Output: true
}

// MergeSchedules builds an SC schedule from per-address coherent
// schedules — when the right set was chosen (§6.3's caveat).
func ExampleMergeSchedules() {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.W(1, 1)},
		memory.History{memory.R(1, 1), memory.R(0, 1)},
	).SetInitial(0, 0).SetInitial(1, 0)
	schedules := map[memory.Addr]memory.Schedule{
		0: {{Proc: 0, Index: 0}, {Proc: 1, Index: 1}},
		1: {{Proc: 0, Index: 1}, {Proc: 1, Index: 0}},
	}
	res, err := consistency.MergeSchedules(exec, schedules)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Consistent, len(res.Schedule))
	// Output: true 4
}
