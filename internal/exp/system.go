package exp

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"memverify/internal/coherence"
	"memverify/internal/consistency"
	"memverify/internal/directory"
	"memverify/internal/memory"
	"memverify/internal/mesi"
	"memverify/internal/reduction"
	"memverify/internal/sat"
	"memverify/internal/solver"
	"memverify/internal/workload"
)

// E7WriteOrderAndMerge grounds the §6.3 discussion with two
// measurements.
//
// First, on VSCC instances with the write order supplied, verifying
// coherence is polynomial while the SC question still requires search:
// the table contrasts the write-order coherence check's wall time with
// the VSC search's state count on the same instance.
//
// Second, the VSC-Conflict caveat: per-address coherent schedules chosen
// independently (by the per-address solvers) often fail to merge into an
// SC schedule even when the execution IS sequentially consistent — the
// failure only means the wrong set of coherent schedules was chosen.
func E7WriteOrderAndMerge(ctx context.Context, cfg Config) ([]*Table, error) {
	rng := cfg.rng()

	wo := &Table{
		Title:  "write-order given: coherence in P, SC still hard",
		Header: []string{"vars m", "coherence (write-order)", "VSC search states"},
		Caption: "per-address coherence with the write order is decided in polynomial time (§5.2, §6.3),\n" +
			"while deciding SC on the same (coherent!) instance explores a growing state space.",
	}
	for _, m := range pick(cfg, []int{1, 2}, []int{1, 2, 3, 4}) {
		q := randomFormula(rng, m, 2*m)
		inst, err := reduction.SATToVSCC(q)
		if err != nil {
			return nil, err
		}
		// Obtain a write order per address from per-address certificates.
		var cohTime time.Duration
		for _, a := range inst.Exec.Addresses() {
			res, err := coherence.NewVerifier().Solve(ctx, inst.Exec, a)
			if err != nil {
				return nil, err
			}
			if !res.Coherent {
				return nil, fmt.Errorf("exp: VSCC promise violated at address %d", a)
			}
			order := writesOf(inst.Exec, res.Schedule)
			start := time.Now()
			wres, err := coherence.SolveWithWriteOrder(ctx, inst.Exec, a, order, nil)
			cohTime += time.Since(start)
			if err != nil {
				return nil, err
			}
			if !wres.Coherent {
				return nil, fmt.Errorf("exp: write order from a certificate rejected")
			}
		}
		vsc, err := consistency.NewVerifier(consistency.SC).Verify(ctx, inst.Exec)
		if err != nil {
			return nil, err
		}
		wo.Add(fmt.Sprint(m), fmt.Sprintf("%.3gs (all addresses)", cohTime.Seconds()), fmt.Sprint(vsc.Stats.States))
	}

	merge := &Table{
		Title:  "VSC-Conflict merge of independently chosen coherent schedules",
		Header: []string{"trace size", "SC traces", "merge succeeded", "merge failed (still SC)"},
		Caption: "failed merges are executions that ARE sequentially consistent, but whose per-address\n" +
			"coherent schedules were chosen without global knowledge — the paper's point that VSC\n" +
			"resists divide-and-conquer (§6.3).",
	}
	for _, ops := range pick(cfg, []int{4, 6}, []int{4, 6, 8, 10}) {
		scCount, mergeOK, mergeFailSC := 0, 0, 0
		samples := pick(cfg, 20, 60)
		for s := 0; s < samples; s++ {
			exec, _ := workload.GenerateCoherent(rng, workload.GenConfig{
				Processors: 3, OpsPerProc: ops, Addresses: 2, Values: 2, WriteFraction: 0.5,
			})
			vsc, err := consistency.NewVerifier(consistency.SC).Verify(ctx, exec)
			if err != nil {
				return nil, err
			}
			if !vsc.Consistent {
				continue // generator guarantees SC; defensive
			}
			scCount++
			schedules := map[memory.Addr]memory.Schedule{}
			for _, a := range exec.Addresses() {
				res, err := coherence.NewVerifier().Solve(ctx, exec, a)
				if err != nil {
					return nil, err
				}
				schedules[a] = res.Schedule
			}
			mres, err := consistency.MergeSchedules(exec, schedules)
			if err != nil {
				return nil, err
			}
			if mres.Consistent {
				mergeOK++
			} else {
				mergeFailSC++
			}
		}
		merge.Add(fmt.Sprintf("3x%d", ops), fmt.Sprint(scCount), fmt.Sprint(mergeOK), fmt.Sprint(mergeFailSC))
	}
	return []*Table{wo, merge}, nil
}

// writesOf extracts the writing operations of a schedule, in order.
func writesOf(exec *memory.Execution, s memory.Schedule) []memory.Ref {
	var out []memory.Ref
	for _, r := range s {
		if _, ok := exec.Op(r).Writes(); ok {
			out = append(out, r)
		}
	}
	return out
}

// E8FaultDetection runs both protocol simulators with each fault kind
// injected probabilistically and measures how often the checkers flag
// the resulting trace — the paper's motivating use case (dynamic
// detection of protocol hardware errors, §1). For the bus protocol the
// recorded write order adds a third, strictly stronger and polynomial
// checker (§5.2's augmentation also improves detection power: the order
// is an extra constraint the observed values must satisfy).
func E8FaultDetection(ctx context.Context, cfg Config) ([]*Table, error) {
	rng := cfg.rng()
	runs := pick(cfg, 20, 120)
	mesiTable := &Table{
		Title:  "bus-based MESI protocol",
		Header: []string{"fault", "faulty runs", "coherence flagged", "order-check flagged", "SC flagged", "silent"},
		Caption: "silent: the fault fired but no checker flags the trace — the observed values admit\n" +
			"legal schedules; detection is sound but necessarily incomplete at trace level (§8).\n" +
			"order-check: the polynomial §5.2 verifier fed the bus's write serialization.",
	}
	for _, kind := range mesi.FaultKinds() {
		fired, cohFlag, orderFlag, scFlag, silent := 0, 0, 0, 0, 0
		for i := 0; i < runs; i++ {
			faults := mesi.WithProbability(kind, 0.25, rng)
			sys := mesi.New(mesi.Config{Processors: 3, CacheSets: 2, CacheWays: 1, Faults: faults})
			prog := mesi.RandomProgram(rng, 3, 8, 2, 0.45, 0.1)
			exec := mesi.Run(sys, prog, rng)
			if sys.Stats().FaultsFired == 0 {
				continue
			}
			fired++
			flagged := false
			rep, err := coherence.NewVerifier().Verify(ctx, exec)
			if err != nil {
				return nil, err
			}
			ok := rep.Coherent()
			if !ok {
				cohFlag++
				flagged = true
			}
			orders := sys.WriteOrders()
			orderBad := false
			for _, a := range exec.Addresses() {
				res, err := coherence.SolveWithWriteOrder(ctx, exec, a, orders[a], nil)
				if err != nil {
					return nil, err
				}
				if !res.Coherent {
					orderBad = true
					break
				}
			}
			if orderBad {
				orderFlag++
				flagged = true
			}
			if !ok {
				scFlag++ // incoherent implies not SC
			} else {
				// A blown state budget leaves SC undecided; the run simply
				// is not flagged by this checker.
				res, err := consistency.NewVerifier(consistency.SC, solver.WithBudget(solver.WithMaxStates(200000))).Verify(ctx, exec)
				if err != nil {
					if _, budget := solver.AsBudgetError(err); !budget {
						return nil, err
					}
				} else if !res.Consistent {
					scFlag++
					flagged = true
				}
			}
			if !flagged {
				silent++
			}
		}
		mesiTable.Add(kind.String(), fmt.Sprint(fired), fmt.Sprint(cohFlag),
			fmt.Sprint(orderFlag), fmt.Sprint(scFlag), fmt.Sprint(silent))
	}

	dirTable := &Table{
		Title:  "directory protocol",
		Header: []string{"fault", "faulty runs", "coherence flagged", "SC flagged", "invariant flagged"},
		Caption: "invariant flagged: the directory/cache agreement check (the in-system information\n" +
			"§8 says practical detection needs) catches the fault even when the value trace is\n" +
			"silent.",
	}
	for _, kind := range directory.FaultKinds() {
		fired, cohFlag, scFlag, invFlag := 0, 0, 0, 0
		for i := 0; i < runs; i++ {
			faults := directory.WithProbability(kind, 0.25, rng)
			sys := directory.New(directory.Config{Nodes: 3, Faults: faults})
			prog := mesi.RandomProgram(rng, 3, 8, 2, 0.45, 0.1)
			exec, invariantBroken := runDirectoryProgram(sys, prog, rng)
			if sys.Stats().FaultsFired == 0 {
				continue
			}
			fired++
			if invariantBroken {
				invFlag++
			}
			rep, err := coherence.NewVerifier().Verify(ctx, exec)
			if err != nil {
				return nil, err
			}
			if !rep.Coherent() {
				cohFlag++
				scFlag++
				continue
			}
			res, err := consistency.NewVerifier(consistency.SC, solver.WithBudget(solver.WithMaxStates(200000))).Verify(ctx, exec)
			if err != nil {
				if _, budget := solver.AsBudgetError(err); !budget {
					return nil, err
				}
			} else if !res.Consistent {
				scFlag++
			}
		}
		dirTable.Add(kind.String(), fmt.Sprint(fired), fmt.Sprint(cohFlag),
			fmt.Sprint(scFlag), fmt.Sprint(invFlag))
	}
	return []*Table{mesiTable, dirTable}, nil
}

// runDirectoryProgram executes a program on the directory system,
// checking protocol invariants after every step.
func runDirectoryProgram(s *directory.System, p mesi.Program, rng *rand.Rand) (*memory.Execution, bool) {
	pos := make([]int, len(p))
	remaining := 0
	for _, insts := range p {
		remaining += len(insts)
	}
	invariantBroken := false
	for remaining > 0 {
		node := rng.Intn(len(p))
		if rng.Intn(8) == 0 {
			// Occasional capacity evictions, so writeback faults get
			// opportunities to fire.
			s.Evict(node, memory.Addr(rng.Intn(2)))
			if s.CheckInvariants() != nil {
				invariantBroken = true
			}
			continue
		}
		if pos[node] >= len(p[node]) {
			continue
		}
		in := p[node][pos[node]]
		pos[node]++
		remaining--
		switch in.Kind {
		case mesi.InstrRead:
			s.Read(node, in.Addr)
		case mesi.InstrWrite:
			s.Write(node, in.Addr, in.Value)
		case mesi.InstrRMW:
			s.RMW(node, in.Addr, in.Value)
		}
		if s.CheckInvariants() != nil {
			invariantBroken = true
		}
	}
	return s.Execution(true), invariantBroken
}

// AblationSearch measures the two search optimizations the design calls
// out: failed-state memoization and eager read scheduling, by state
// count on Figure 4.1 instances.
func AblationSearch(ctx context.Context, cfg Config) ([]*Table, error) {
	rng := cfg.rng()
	t := &Table{
		Header: []string{"vars m", "full search", "no memoization", "no eager reads", "none"},
		Caption: "visited branching states on SAT->VMC instances (lower is better). Memoization turns\n" +
			"the search into the paper's O(n^k·|D|) constant-process procedure; the eager-read rule\n" +
			"removes read-only branching.",
	}
	variants := []*coherence.Options{
		nil,
		{DisableMemoization: true},
		{DisableEagerReads: true},
		{DisableMemoization: true, DisableEagerReads: true},
	}
	for _, m := range pick(cfg, []int{1, 2}, []int{1, 2, 3}) {
		q := randomFormula(rng, m, 2*m)
		inst, err := reduction.SATToVMC(q)
		if err != nil {
			return nil, err
		}
		cells := []string{fmt.Sprint(m)}
		for _, opts := range variants {
			res, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithOptions(opts)).Solve(ctx, inst.Exec, inst.Addr)
			if err != nil {
				return nil, err
			}
			cells = append(cells, fmt.Sprint(res.Stats.States))
		}
		t.Add(cells...)
	}
	return []*Table{t}, nil
}

// AblationSAT contrasts the SAT backends (CDCL vs DPLL vs brute force)
// on random 3SAT near the phase transition.
func AblationSAT(ctx context.Context, cfg Config) ([]*Table, error) {
	rng := cfg.rng()
	t := &Table{
		Header:  []string{"vars", "clauses", "CDCL", "DPLL", "brute force"},
		Caption: "median wall time per instance on random 3SAT at ratio 4.3 (phase transition).",
	}
	sizes := pick(cfg, []int{8, 12}, []int{10, 14, 18, 22})
	reps := pick(cfg, 3, 7)
	for _, nv := range sizes {
		nc := int(float64(nv) * 4.3)
		cdcl := Measure([]int{nv}, reps, func(int) func() {
			f := sat.RandomKSAT(rng, nv, nc, 3)
			return func() {
				if _, err := sat.SolveCDCL(f); err != nil {
					panic(fmt.Sprintf("exp: invariant violated: CDCL failed on a well-formed random formula: %v", err))
				}
			}
		})
		dpll := Measure([]int{nv}, reps, func(int) func() {
			f := sat.RandomKSAT(rng, nv, nc, 3)
			return func() {
				if _, err := sat.SolveDPLL(f); err != nil {
					panic(fmt.Sprintf("exp: invariant violated: DPLL failed on a well-formed random formula: %v", err))
				}
			}
		})
		brute := Measure([]int{nv}, reps, func(int) func() {
			f := sat.RandomKSAT(rng, nv, nc, 3)
			return func() {
				if _, err := sat.SolveBrute(f); err != nil {
					panic(fmt.Sprintf("exp: invariant violated: brute-force SAT failed on a well-formed random formula: %v", err))
				}
			}
		})
		t.Add(fmt.Sprint(nv), fmt.Sprint(nc),
			fmt.Sprintf("%.3gs", cdcl[0].Cost),
			fmt.Sprintf("%.3gs", dpll[0].Cost),
			fmt.Sprintf("%.3gs", brute[0].Cost))
	}
	return []*Table{t}, nil
}

// AblationWriteOrder measures the paper's practical recommendation (§8):
// with the write order supplied by the memory system, verification cost
// collapses from a search to a near-linear pass.
func AblationWriteOrder(ctx context.Context, cfg Config) ([]*Table, error) {
	rng := cfg.rng()
	t := &Table{
		Header: []string{"ops", "general search", "write-order algorithm", "speedup"},
		Caption: "same coherent traces (4 processes, 1 address); the general search is complete but\n" +
			"exponential in the worst case, the write-order algorithm is O(n^2).",
	}
	const budget = 1_000_000
	for _, n := range pick(cfg, []int{64, 128}, []int{200, 400, 800, 1600}) {
		exec, orders := workload.GenerateCoherent(rng, workload.GenConfig{
			Processors: 4, OpsPerProc: n / 4, Addresses: 1, Values: 3, WriteFraction: 0.4,
		})
		var gaveUp bool
		general := Measure([]int{n}, 1, func(int) func() {
			return func() {
				_, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithBudget(solver.WithMaxStates(budget))).Solve(ctx, exec, 0)
				if err != nil {
					if _, ok := solver.AsBudgetError(err); ok {
						gaveUp = true
						return
					}
					panic(fmt.Sprintf("exp: invariant violated: non-budget solver error on a generated workload: %v", err))
				}
			}
		})
		withOrder := Measure([]int{n}, 1, func(int) func() {
			return func() { mustSolve(coherence.SolveWithWriteOrder(ctx, exec, 0, orders[0], nil)) }
		})
		generalCell := fmt.Sprintf("%.3gs", general[0].Cost)
		speedupCell := fmt.Sprintf("%.1fx", general[0].Cost/withOrder[0].Cost)
		if gaveUp {
			generalCell += " (budget exhausted)"
			speedupCell = ">" + speedupCell
		}
		t.Add(fmt.Sprint(n), generalCell,
			fmt.Sprintf("%.3gs", withOrder[0].Cost), speedupCell)
	}
	return []*Table{t}, nil
}
