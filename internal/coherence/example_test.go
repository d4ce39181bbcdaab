package coherence_test

import (
	"context"
	"fmt"

	"memverify/internal/coherence"
	"memverify/internal/memory"
)

// The basic workflow: build an execution, ask for a coherent schedule.
func ExampleVerifier_Solve() {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1)},
		memory.History{memory.R(0, 1)},
	).SetInitial(0, 0)
	res, err := coherence.NewVerifier().Solve(context.Background(), exec, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Coherent)
	// Output: true
}

// The write-order augmentation of §5.2: supply the order in which the
// memory system performed the writes, verification becomes polynomial.
func ExampleSolveWithWriteOrder() {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.W(0, 2)},
		memory.History{memory.R(0, 1), memory.R(0, 2)},
	).SetInitial(0, 0)
	order := []memory.Ref{{Proc: 0, Index: 0}, {Proc: 0, Index: 1}}
	res, err := coherence.SolveWithWriteOrder(context.Background(), exec, 0, order, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Coherent, res.Algorithm)
	// Output: true write-order
}

// Counting coherent schedules: two unordered writes admit two.
func ExampleCount() {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1)},
		memory.History{memory.W(0, 2)},
	)
	n, err := coherence.Count(context.Background(), exec, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println(n)
	// Output: 2
}

// Diagnosing a violation shrinks it to a minimal core.
func ExampleDiagnose() {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.R(0, 1)},
		memory.History{memory.R(0, 1), memory.R(0, 42)}, // 42 has no source
	).SetInitial(0, 0)
	d, err := coherence.Diagnose(context.Background(), exec, 0, nil)
	if err != nil {
		panic(err)
	}
	for _, r := range d.Ops {
		fmt.Println(r, exec.Op(r))
	}
	// Output: P1[1] R(0, 42)
}
