// Writeorder: the §5.2 augmentation in practice. Verifying coherence is
// NP-Complete in general, but a memory system that reports the order in
// which writes were performed makes verification polynomial — this is
// the paper's practical recommendation (§8). The example generates large
// traces with and without the recorded write order and compares the
// verification cost; the general search runs under a state budget and is
// allowed to give up, which on large traces it regularly does.
//
// Run with: go run ./examples/writeorder
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"memverify/internal/coherence"
	"memverify/internal/solver"
	"memverify/internal/workload"
)

func main() {
	rng := rand.New(rand.NewSource(7))

	const budget = 2_000_000
	for _, n := range []int{1000, 4000, 16000} {
		exec, orders := workload.GenerateCoherent(rng, workload.GenConfig{
			Processors:    4,
			OpsPerProc:    n / 4,
			Addresses:     1,
			Values:        4,
			WriteFraction: 0.4,
			RMWFraction:   0.1,
		})

		start := time.Now()
		_, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithBudget(solver.WithMaxStates(budget))).Solve(context.Background(), exec, 0)
		general := time.Since(start)
		generalNote := fmt.Sprintf("%v", general)
		if err != nil {
			be, ok := solver.AsBudgetError(err)
			if !ok {
				log.Fatal(err)
			}
			generalNote = fmt.Sprintf("gave up after %d states (%v)", be.Stats.States, general)
		}

		start = time.Now()
		wres, err := coherence.SolveWithWriteOrder(context.Background(), exec, 0, orders[0], nil)
		if err != nil {
			log.Fatal(err)
		}
		augmented := time.Since(start)
		if !wres.Coherent {
			log.Fatal("write-order algorithm rejected the recorded order?!")
		}

		fmt.Printf("n=%6d ops: general search %-34s | write-order %10v\n", n, generalNote, augmented)
	}

	fmt.Println("\nthe write-order algorithm also catches violations:")
	exec, orders := workload.GenerateCoherent(rng, workload.GenConfig{
		Processors: 2, OpsPerProc: 10, Addresses: 1, Values: 3, WriteFraction: 0.5,
	})
	mut, err := workload.Inject(rng, exec, workload.ViolationPhantomValue)
	if err != nil {
		log.Fatal(err)
	}
	res, err := coherence.SolveWithWriteOrder(context.Background(), mut, 0, orders[0], nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corrupted trace accepted: %v (a read observes a value nothing wrote)\n", res.Coherent)
}
