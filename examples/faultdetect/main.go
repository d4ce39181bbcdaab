// Faultdetect: the paper's motivating scenario (§1) end to end — run a
// multiprocessor with a cache-coherence protocol bug injected, capture
// the execution, and let the verifier catch the bug that plain data
// checking would miss.
//
// Run with: go run ./examples/faultdetect
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"memverify/internal/coherence"
	"memverify/internal/mesi"
)

func main() {
	rng := rand.New(rand.NewSource(42))

	// A healthy 4-CPU system first.
	healthy := mesi.New(mesi.Config{Processors: 4})
	prog := mesi.RandomProgram(rng, 4, 12, 3, 0.4, 0.1)
	exec := mesi.Run(healthy, prog, rng)
	rep, err := coherence.NewVerifier().Verify(context.Background(), exec)
	if err != nil {
		log.Fatal(err)
	}
	ok := rep.Coherent()
	fmt.Printf("healthy system: %d ops, coherent = %v\n", exec.NumOps(), ok)
	fmt.Printf("  cache stats: %+v\n\n", healthy.Stats())

	// Now inject protocol faults until one produces an observable
	// violation (not every fault corrupts an observed value — that is
	// the paper's point about testing being necessarily dynamic).
	for _, kind := range mesi.FaultKinds() {
		for seed := int64(0); ; seed++ {
			if seed == 200 {
				fmt.Printf("%-16s: no observable violation in 200 runs (silent fault)\n", kind)
				break
			}
			runRng := rand.New(rand.NewSource(seed))
			sys := mesi.New(mesi.Config{
				Processors: 3,
				CacheSets:  2, CacheWays: 1,
				Faults: mesi.Once(kind, 2),
			})
			p := mesi.RandomProgram(runRng, 3, 10, 2, 0.45, 0.15)
			ex := mesi.Run(sys, p, runRng)
			if sys.Stats().FaultsFired == 0 {
				continue
			}
			rep, err := coherence.NewVerifier().Verify(context.Background(), ex)
			if err != nil {
				log.Fatal(err)
			}
			if addr, violated := rep.FirstViolation(); violated {
				fmt.Printf("%-16s: DETECTED at address %d (seed %d)\n", kind, addr, seed)
				break
			}
		}
	}
}
