// Litmus: the classic relaxed-memory litmus tests run through all the
// checkers, printing the allowed/forbidden matrix for coherence, SC, TSO
// and PSO — the model hierarchy of §6.2 made concrete.
//
// Run with: go run ./examples/litmus
package main

import (
	"context"
	"fmt"
	"log"

	"memverify/internal/consistency"
	"memverify/internal/workload"
)

func main() {
	tests := append(workload.LitmusTests(), workload.IRIW())

	fmt.Printf("%-26s %-10s %-6s %-6s %-6s\n", "litmus outcome", "coherent", "SC", "TSO", "PSO")
	fmt.Printf("%-26s %-10s %-6s %-6s %-6s\n", "--------------", "--------", "--", "---", "---")
	for _, l := range tests {
		coh, err := consistency.NewVerifier(consistency.CoherenceOnly).Verify(context.Background(), l.Exec)
		if err != nil {
			log.Fatal(err)
		}
		sc, err := consistency.NewVerifier(consistency.SC).Verify(context.Background(), l.Exec)
		if err != nil {
			log.Fatal(err)
		}
		tso, err := consistency.NewVerifier(consistency.TSO).Verify(context.Background(), l.Exec)
		if err != nil {
			log.Fatal(err)
		}
		pso, err := consistency.NewVerifier(consistency.PSO).Verify(context.Background(), l.Exec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-26s %-10v %-6v %-6v %-6v\n",
			l.Name, coh.Consistent, sc.Consistent, tso.Consistent, pso.Consistent)
	}

	fmt.Println("\nwitness for the store-buffering outcome under TSO (issue/commit events):")
	sb := workload.Dekker()
	res, err := consistency.NewVerifier(consistency.TSO).Verify(context.Background(), sb.Exec)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range res.Events {
		op := ""
		if e.Kind == consistency.EventIssue {
			op = sb.Exec.Op(e.Ref).String()
		}
		fmt.Printf("  %v %s\n", e, op)
	}
}
