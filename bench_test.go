// Benchmarks, one per table/figure of the paper (see DESIGN.md §4 for
// the experiment index). Run with:
//
//	go test -bench=. -benchmem
//
// The wall-clock shapes these produce — polynomial rows flat-ish,
// NP-Complete rows exploding with formula size, write-order augmentation
// collapsing the cost — are the reproduction's analogue of the paper's
// claims; cmd/experiments prints the same data as tables with fitted
// exponents.
package memverify_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"memverify/internal/coherence"
	"memverify/internal/consistency"
	"memverify/internal/memory"
	"memverify/internal/mesi"
	"memverify/internal/monitor"
	"memverify/internal/obs"
	"memverify/internal/reduction"
	"memverify/internal/sat"
	"memverify/internal/solver"
	"memverify/internal/workload"
)

// benchFormula builds a deterministic random formula.
func benchFormula(seed int64, m, n int) *sat.Formula {
	rng := rand.New(rand.NewSource(seed))
	f := &sat.Formula{NumVars: m}
	for j := 0; j < n; j++ {
		clen := 1 + rng.Intn(3)
		c := make(sat.Clause, 0, clen)
		for k := 0; k < clen; k++ {
			l := sat.Lit(1 + rng.Intn(m))
			if rng.Intn(2) == 0 {
				l = l.Neg()
			}
			c = append(c, l)
		}
		f.Clauses = append(f.Clauses, c)
	}
	return f
}

// --- Figure 4.1 / 4.2 / Theorem 4.2: the general SAT -> VMC reduction.

func BenchmarkFig41SATToVMC(b *testing.B) {
	for _, m := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			q := benchFormula(1, m, 2*m)
			inst, err := reduction.SATToVMC(q)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), inst.Exec, inst.Addr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig42Example(b *testing.B) {
	q := sat.NewFormula(sat.Clause{1}) // Q = u
	inst, err := reduction.SATToVMC(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), inst.Exec, inst.Addr)
		if err != nil || !res.Coherent {
			b.Fatal("Figure 4.2 instance must be coherent")
		}
	}
}

// --- Figure 5.1: restricted instances (3 ops/process, 2 writes/value).

func BenchmarkFig51Restricted(b *testing.B) {
	// m=4 already takes tens of seconds — the NP-hardness showing; keep
	// the default run under control.
	for _, m := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			q := benchFormula(2, m, 2*m)
			inst, err := reduction.ThreeSATToVMCRestricted(q)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), inst.Exec, inst.Addr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 5.2: RMW-only instances (2 RMWs/process, 3 writes/value).

func BenchmarkFig52RMW(b *testing.B) {
	for _, m := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			q := benchFormula(3, m, 2*m)
			inst, err := reduction.ThreeSATToVMCRMW(q)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), inst.Exec, inst.Addr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 5.3: one benchmark per tractable row.

func coherentTrace(seed int64, n int, cfg workload.GenConfig) (*memory.Execution, map[memory.Addr][]memory.Ref) {
	rng := rand.New(rand.NewSource(seed))
	cfg.OpsPerProc = n / cfg.Processors
	return workload.GenerateCoherent(rng, cfg)
}

func BenchmarkFig53SingleOp(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			exec := singleOpTrace(4, n, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := coherence.SolveSingleOp(context.Background(), exec, 0)
				if err != nil || !res.Coherent {
					b.Fatal("workload must be coherent")
				}
			}
		})
	}
}

func BenchmarkFig53SingleOpRMW(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			exec := singleOpTrace(5, n, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := coherence.SolveSingleOpRMW(context.Background(), exec, 0)
				if err != nil || !res.Coherent {
					b.Fatal("workload must be coherent")
				}
			}
		})
	}
}

// singleOpTrace builds a coherent one-op-per-process instance.
func singleOpTrace(seed int64, n int, rmw bool) *memory.Execution {
	rng := rand.New(rand.NewSource(seed))
	exec := &memory.Execution{}
	exec.SetInitial(0, 0)
	cur := memory.Value(0)
	for p := 0; p < n; p++ {
		next := memory.Value(p + 1)
		switch {
		case rmw:
			exec.Histories = append(exec.Histories, memory.History{memory.RW(0, cur, next)})
			cur = next
		case rng.Intn(2) == 0:
			exec.Histories = append(exec.Histories, memory.History{memory.R(0, cur)})
		default:
			exec.Histories = append(exec.Histories, memory.History{memory.W(0, next)})
			cur = next
		}
	}
	exec.SetFinal(0, cur)
	return exec
}

func BenchmarkFig53ReadMap(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			exec, _ := coherentTrace(6, n, workload.GenConfig{
				Processors: 4, Addresses: 1, UniqueWrites: true, WriteFraction: 0.4,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := coherence.SolveReadMap(context.Background(), exec, 0)
				if err != nil || !res.Coherent {
					b.Fatal("workload must be coherent")
				}
			}
		})
	}
}

func BenchmarkFig53ConstantProcesses(b *testing.B) {
	for _, n := range []int{200, 800} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			exec, _ := coherentTrace(7, n, workload.GenConfig{
				Processors: 3, Addresses: 1, Values: 3, WriteFraction: 0.4,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithBudget(solver.WithMaxStates(5_000_000))).Solve(context.Background(), exec, 0)
				if err != nil {
					if _, ok := solver.AsBudgetError(err); ok {
						b.Skip("state budget exhausted on this trace")
					}
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig53WriteOrder(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			exec, orders := coherentTrace(8, n, workload.GenConfig{
				Processors: 4, Addresses: 1, Values: 4, WriteFraction: 0.4,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := coherence.SolveWithWriteOrder(context.Background(), exec, 0, orders[0], nil)
				if err != nil || !res.Coherent {
					b.Fatal("workload must be coherent")
				}
			}
		})
	}
}

func BenchmarkFig53WriteOrderRMW(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			exec, orders := coherentTrace(9, n, workload.GenConfig{
				Processors: 4, Addresses: 1, Values: 4, RMWFraction: 1,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := coherence.CheckRMWWriteOrder(context.Background(), exec, 0, orders[0])
				if err != nil || !res.Coherent {
					b.Fatal("workload must be coherent")
				}
			}
		})
	}
}

// --- Figure 6.1: LRC via synchronization.

func BenchmarkFig61LRC(b *testing.B) {
	q := benchFormula(10, 3, 6)
	inst, err := reduction.SATToVMCSynchronized(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := consistency.NewVerifier(consistency.LRC).Verify(context.Background(), inst.Exec); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 6.2 / 6.3: VSCC.

func BenchmarkFig62VSCC(b *testing.B) {
	for _, m := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			q := benchFormula(11, m, 2*m)
			inst, err := reduction.SATToVSCC(q)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := consistency.NewVerifier(consistency.SC).Verify(context.Background(), inst.Exec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig63CoherencePromise(b *testing.B) {
	q := benchFormula(12, 3, 6)
	inst, err := reduction.SATToVSCC(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := coherence.NewVerifier().Verify(context.Background(), inst.Exec)
		if err != nil || !rep.Coherent() {
			b.Fatal("VSCC instances are coherent by construction")
		}
	}
}

// --- §6.3: VSC-Conflict merge.

func BenchmarkMergeSchedules(b *testing.B) {
	// Per-address schedules sliced from the generator's own SC witness
	// merge by construction (independently chosen ones usually do not —
	// the §6.3 point, measured in E7).
	rng := rand.New(rand.NewSource(13))
	exec, _, witness := workload.GenerateCoherentWithWitness(rng, workload.GenConfig{
		Processors: 4, OpsPerProc: 100, Addresses: 4, Values: 3, WriteFraction: 0.4,
	})
	schedules := map[memory.Addr]memory.Schedule{}
	for _, r := range witness {
		o := exec.Op(r)
		if o.IsMemory() {
			schedules[o.Addr] = append(schedules[o.Addr], r)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := consistency.MergeSchedules(exec, schedules)
		if err != nil || !res.Consistent {
			b.Fatal("witness-derived schedules must merge")
		}
	}
}

// --- §1 motivation: fault detection throughput.

func BenchmarkFaultDetection(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := mesi.New(mesi.Config{
			Processors: 3, CacheSets: 2, CacheWays: 1,
			Faults: mesi.WithProbability(mesi.FaultDropWrite, 0.2, rng),
		})
		prog := mesi.RandomProgram(rng, 3, 10, 2, 0.45, 0.1)
		exec := mesi.Run(sys, prog, rng)
		if _, err := coherence.NewVerifier().Verify(context.Background(), exec); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations.

func BenchmarkAblationMemoization(b *testing.B) {
	q := benchFormula(15, 3, 6)
	inst, err := reduction.SATToVMC(q)
	if err != nil {
		b.Fatal(err)
	}
	for _, variant := range []struct {
		name string
		opts *coherence.Options
	}{
		{"memo+eager", nil},
		{"no-memo", &coherence.Options{DisableMemoization: true}},
		{"no-eager", &coherence.Options{DisableEagerReads: true}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithOptions(variant.opts)).Solve(context.Background(), inst.Exec, inst.Addr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationSATBackends(b *testing.B) {
	f := sat.RandomKSAT(rand.New(rand.NewSource(16)), 16, 68, 3)
	b.Run("cdcl", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sat.SolveCDCL(f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dpll", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sat.SolveDPLL(f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("brute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sat.SolveBrute(f); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Observability overhead (internal/obs acceptance: with tracing off
// the instrumented search must stay within 5% of the seed; with metrics
// on, only the every-64-states delta flush is added; full JSONL tracing
// is the expensive mode and priced here for reference).

func BenchmarkObsOverhead(b *testing.B) {
	q := benchFormula(23, 3, 6)
	inst, err := reduction.SATToVMC(q)
	if err != nil {
		b.Fatal(err)
	}
	solve := func(b *testing.B, ctx context.Context) {
		for i := 0; i < b.N; i++ {
			if _, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(ctx, inst.Exec, inst.Addr); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		solve(b, context.Background())
	})
	b.Run("metrics", func(b *testing.B) {
		ctx := obs.With(context.Background(), &obs.Observer{Registry: obs.NewRegistry()})
		solve(b, ctx)
	})
	b.Run("jsonl", func(b *testing.B) {
		jl := obs.NewJSONL(io.Discard)
		ctx := obs.With(context.Background(), &obs.Observer{Tracer: obs.NewTracer(jl)})
		solve(b, ctx)
	})
	b.Run("full", func(b *testing.B) {
		jl := obs.NewJSONL(io.Discard)
		ctx := obs.With(context.Background(), &obs.Observer{
			Tracer:   obs.NewTracer(jl),
			Registry: obs.NewRegistry(),
		})
		solve(b, ctx)
	})
}

// --- Checker microbenchmarks (certificate validation is the NP side of
// Theorem 4.2 and must stay linear).

func BenchmarkCheckCoherent(b *testing.B) {
	exec, orders := coherentTrace(17, 10000, workload.GenConfig{
		Processors: 4, Addresses: 1, Values: 4, WriteFraction: 0.4,
	})
	res, err := coherence.SolveWithWriteOrder(context.Background(), exec, 0, orders[0], nil)
	if err != nil || !res.Coherent {
		b.Fatal("workload must be coherent")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := memory.CheckCoherent(exec, 0, res.Schedule); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckSC(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	exec, _, witness := workload.GenerateCoherentWithWitness(rng, workload.GenConfig{
		Processors: 4, OpsPerProc: 2500, Addresses: 4, Values: 4, WriteFraction: 0.4,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := memory.CheckSC(exec, witness); err != nil {
			b.Fatal(err)
		}
	}
}

// --- New-feature benchmarks: counting, diagnosis, parallel
// verification, constrained VSC, and the online monitor.

func BenchmarkCountSchedules(b *testing.B) {
	exec, _ := coherentTrace(19, 120, workload.GenConfig{
		Processors: 3, Addresses: 1, Values: 3, WriteFraction: 0.4,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := coherence.Count(context.Background(), exec, 0)
		if err != nil || n.Sign() <= 0 {
			b.Fatal("coherent trace must have schedules")
		}
	}
}

func BenchmarkDiagnose(b *testing.B) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.R(0, 1), memory.W(0, 2), memory.R(0, 2)},
		memory.History{memory.R(0, 1), memory.R(0, 2), memory.R(0, 99)},
	).SetInitial(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coherence.Diagnose(context.Background(), exec, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVSCWithWriteOrders(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	exec, orders := workload.GenerateCoherent(rng, workload.GenConfig{
		Processors: 3, OpsPerProc: 20, Addresses: 2, Values: 3, WriteFraction: 0.4,
	})
	b.Run("unconstrained", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := consistency.NewVerifier(consistency.SC).Verify(context.Background(), exec)
			if err != nil || !res.Consistent {
				b.Fatal("generated trace must be SC")
			}
		}
	})
	b.Run("with-orders", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := consistency.NewVerifier(consistency.SC, solver.WithWriteOrders(orders)).Verify(context.Background(), exec)
			if err != nil || !res.Consistent {
				b.Fatal("generated trace must be SC under its own orders")
			}
		}
	})
}

func BenchmarkOnlineMonitor(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	mon := monitor.New(map[memory.Addr]memory.Value{0: 0})
	cur := memory.Value(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := rng.Intn(4)
		if rng.Intn(3) == 0 {
			cur++
			if err := mon.ObserveWrite(p, 0, cur); err != nil {
				b.Fatal(err)
			}
		} else if err := mon.ObserveRead(p, 0, cur); err != nil {
			b.Fatal(err)
		}
	}
}
