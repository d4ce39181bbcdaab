package consistency

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"memverify/internal/coherence"
	"memverify/internal/memory"
	"memverify/internal/mesi"
	"memverify/internal/reduction"
	"memverify/internal/sat"
	"memverify/internal/solver"
	"memverify/internal/tsomachine"
)

// The exploration golden test pins what every exact search explores,
// not only what it answers: the sums of States, MemoHits, Branches and
// EagerReads over a fixed corpus, per procedure and per configuration.
// A refactor of a search or its memo that keeps verdicts but changes the
// exploration order or the set of memoized states moves these sums. The
// constants were recorded before the VSC search moved onto the coherence
// kernel, so they also pin that the two searches explore alike.

// goldenSums is the pinned total for one procedure under one
// configuration.
type goldenSums struct{ states, memoHits, branches, eagerReads int }

func (g *goldenSums) add(st solver.Stats) {
	g.states += st.States
	g.memoHits += st.MemoHits
	g.branches += st.Branches
	g.eagerReads += st.EagerReads
}

// goldenBudget caps every solve, so the ablated searches stay bounded;
// a sequential search trips the cap at the same state on every run.
const goldenBudget = 30_000

// goldenFormula draws clauses of one to three literals, as the
// reduction workload does.
func goldenFormula(rng *rand.Rand, vars, clauses int) *sat.Formula {
	f := &sat.Formula{NumVars: vars}
	for j := 0; j < clauses; j++ {
		c := make(sat.Clause, 1+rng.Intn(3))
		for k := range c {
			c[k] = sat.Lit(1 + rng.Intn(vars))
			if rng.Intn(2) == 0 {
				c[k] = c[k].Neg()
			}
		}
		f.Clauses = append(f.Clauses, c)
	}
	return f
}

// goldenCorpus is the fixed input set: seeded random multi-address
// executions and the litmus fixtures (multi), 20 instances each of the
// Figure 4.1, 5.1 and 5.2 reductions (figs, single-address), 10 Figure
// 6.2 VSCC instances, and tsomachine traces for the store-buffer
// checkers.
type goldenCorpus struct {
	multi, figs, vscc, machine []*memory.Execution
}

func buildGoldenCorpus(t *testing.T) goldenCorpus {
	t.Helper()
	var c goldenCorpus
	rng := rand.New(rand.NewSource(2024))
	for i := 0; i < 150; i++ {
		c.multi = append(c.multi, randomMultiAddress(rng))
	}
	c.multi = append(c.multi, dekkerExecution(), messagePassingStale(),
		memory.NewExecution(
			memory.History{memory.W(0, 1)},
			memory.History{memory.W(1, 1)},
			memory.History{memory.R(0, 1), memory.R(1, 0)},
			memory.History{memory.R(1, 1), memory.R(0, 0)},
		).SetInitial(0, 0).SetInitial(1, 0),
		memory.NewExecution(
			memory.History{memory.Acq(), memory.W(0, 1), memory.Rel()},
			memory.History{memory.Acq(), memory.R(0, 1), memory.Bar(), memory.R(1, 0), memory.Rel()},
			memory.History{memory.W(1, 2), memory.Bar(), memory.R(0, 1)},
		).SetInitial(0, 0).SetInitial(1, 0).SetFinal(1, 2))

	shapes := []struct {
		vars, clauses int
		build         func(*sat.Formula) (*reduction.VMCInstance, error)
	}{
		{4, 10, reduction.SATToVMC},
		{2, 4, reduction.ThreeSATToVMCRestricted},
		{6, 14, reduction.ThreeSATToVMCRMW},
	}
	frng := rand.New(rand.NewSource(1))
	for _, sh := range shapes {
		for i := 0; i < 20; i++ {
			inst, err := sh.build(goldenFormula(frng, sh.vars, sh.clauses))
			if err != nil {
				t.Fatal(err)
			}
			c.figs = append(c.figs, inst.Exec)
		}
	}
	for len(c.vscc) < 10 {
		inst, err := reduction.SATToVSCC(goldenFormula(frng, 3, 4))
		if err != nil {
			t.Fatal(err)
		}
		c.vscc = append(c.vscc, inst.Exec)
	}
	mrng := rand.New(rand.NewSource(3))
	for i := 0; i < 15; i++ {
		disc := tsomachine.TSO
		if i%2 == 1 {
			disc = tsomachine.PSO
		}
		prog := mesi.RandomProgram(mrng, 2, 6, 2, 0.5, 0.05)
		c.machine = append(c.machine, tsomachine.Run(tsomachine.New(2, disc), prog, mrng, 0.25))
	}
	return c
}

// goldenStats returns a solve's Stats, or the partial Stats of a budget
// trip.
func goldenStats(t *testing.T, st solver.Stats, err error) solver.Stats {
	t.Helper()
	if err != nil {
		be, ok := solver.AsBudgetError(err)
		if !ok {
			t.Fatal(err)
		}
		return be.Stats
	}
	return st
}

// exploreGolden runs every procedure over the corpus under opts and
// returns the sums keyed by procedure.
func exploreGolden(t *testing.T, c goldenCorpus, opts *solver.Options) map[string]goldenSums {
	t.Helper()
	ctx := context.Background()
	out := map[string]goldenSums{}
	run := func(proc string, m Model, exec *memory.Execution, extra ...solver.ConfigOption) *Result {
		cfg := append([]solver.ConfigOption{solver.WithOptions(opts)}, extra...)
		res, err := NewVerifier(m, cfg...).Verify(ctx, exec)
		var st solver.Stats
		if res != nil {
			st = res.Stats
		}
		g := out[proc]
		g.add(goldenStats(t, st, err))
		out[proc] = g
		if err != nil {
			return nil
		}
		return res
	}
	for _, exec := range append(append([]*memory.Execution(nil), c.multi...), c.figs...) {
		res := run("sc", SC, exec)
		if res != nil && res.Consistent {
			run("sc-orders", SC, exec, solver.WithWriteOrders(ordersFromSchedule(exec, res.Schedule)))
		}
	}
	for _, exec := range c.figs {
		res, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithOptions(opts)).
			Solve(ctx, exec, exec.Addresses()[0])
		var st solver.Stats
		if res != nil {
			st = res.Stats
		}
		g := out["exact"]
		g.add(goldenStats(t, st, err))
		out["exact"] = g
	}
	for _, exec := range c.vscc {
		run("vscc", VSCC, exec)
	}
	for _, exec := range append(append([]*memory.Execution(nil), c.multi...), c.machine...) {
		run("tso", TSO, exec)
		run("pso", PSO, exec)
	}
	return out
}

// exploreGoldenWant holds the sums recorded at the parent of the kernel
// refactor (sequential search, one CPU or many alike).
var exploreGoldenWant = map[string]map[string]goldenSums{
	"default": {
		"exact":     {200669, 349209, 551013, 192219},
		"sc":        {201059, 349229, 551515, 192326},
		"sc-orders": {1142, 2, 1190, 796},
		"vscc":      {352, 133, 662, 419},
		"tso":       {1222, 255, 1461, 0},
		"pso":       {1429, 554, 1982, 0},
	},
	"no-memo": {
		"exact":     {1001407, 0, 1002352, 213694},
		"sc":        {1001845, 0, 1002882, 213801},
		"sc-orders": {606, 0, 652, 312},
		"vscc":      {3693, 0, 3870, 2174},
		"tso":       {9316, 0, 10867, 0},
		"pso":       {41086, 0, 55051, 0},
	},
	"no-eager": {
		"exact":     {1085175, 896758, 1982788, 0},
		"sc":        {1085687, 896791, 1983479, 0},
		"sc-orders": {5608, 878, 6666, 0},
		"vscc":      {16721, 34875, 52060, 0},
		"tso":       {1222, 255, 1461, 0},
		"pso":       {1429, 554, 1982, 0},
	},
}

func TestExplorationGolden(t *testing.T) {
	c := buildGoldenCorpus(t)
	for _, cfg := range []struct {
		name string
		opts *solver.Options
	}{
		{"default", solver.New(solver.WithMaxStates(goldenBudget))},
		{"no-memo", solver.New(solver.WithMaxStates(goldenBudget), solver.WithoutMemoization())},
		{"no-eager", solver.New(solver.WithMaxStates(goldenBudget), solver.WithoutEagerReads())},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			got := exploreGolden(t, c, cfg.opts)
			want := exploreGoldenWant[cfg.name]
			for _, proc := range []string{"exact", "sc", "sc-orders", "vscc", "tso", "pso"} {
				line := fmt.Sprintf("%q: {%d, %d, %d, %d},", proc, got[proc].states, got[proc].memoHits,
					got[proc].branches, got[proc].eagerReads)
				if got[proc] != want[proc] {
					t.Errorf("%s: got %s want %+v", cfg.name, line, want[proc])
				}
			}
		})
	}
}
