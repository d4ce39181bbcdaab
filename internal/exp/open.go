package exp

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"memverify/internal/coherence"
	"memverify/internal/memory"
	"memverify/internal/solver"
)

// E10OpenTwoOps probes the paper's open problem (§7, Figure 5.3's "?"
// row): the complexity of VMC with exactly TWO simple operations per
// process is unknown. The experiment measures the complete search's
// state count on random two-op instances of growing size under several
// operation mixes, each search capped by a state budget.
//
// The outcome is honestly mixed — and that is the finding: read-heavy
// and value-rich mixes fit low-degree polynomials, but write-heavy
// two-value mixes already drive THIS search past its budget at a few
// hundred operations. That says the general memoized search gains no
// special traction from the two-op restriction; whether the problem
// itself is tractable (via some structure the search does not exploit)
// remains exactly as open as the paper left it.
func E10OpenTwoOps(ctx context.Context, cfg Config) ([]*Table, error) {
	rng := cfg.rng()
	t := &Table{
		Header: []string{"mix", "exponent (states vs n)", "budget exhausted", "evidence"},
		Caption: "complete-search states on random instances with exactly 2 simple ops per process\n" +
			"(budget 2M states/instance; exhausted runs excluded from the fit). An empirical\n" +
			"probe of the open problem — suggestive, not a complexity result.",
	}
	sizes := pick(cfg, []int{40, 80, 160}, []int{100, 200, 400, 800})
	samples := pick(cfg, 3, 6)
	const budget = 2_000_000

	for _, mix := range []struct {
		name       string
		writeFrac  float64
		valueRange int
	}{
		{"read-heavy, few values", 0.3, 2},
		{"write-heavy, few values", 0.7, 2},
		{"balanced, many values", 0.5, 6},
	} {
		var points []Point
		exhausted, total := 0, 0
		for _, n := range sizes {
			var states []int
			for s := 0; s < samples; s++ {
				exec := twoOpInstance(rng, n/2, mix.writeFrac, mix.valueRange)
				total++
				res, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithBudget(solver.WithMaxStates(budget))).Solve(ctx, exec, 0)
				if err != nil {
					if _, ok := solver.AsBudgetError(err); ok {
						exhausted++
						continue
					}
					return nil, err
				}
				states = append(states, res.Stats.States)
			}
			if len(states) > 0 {
				sort.Ints(states)
				points = append(points, Point{N: n, Cost: float64(states[len(states)/2])})
			}
		}
		// Medians, because the distribution is heavy-tailed: most
		// instances are trivial, rare ones dominate a mean (or exhaust
		// the budget) — which is itself part of the finding.
		t.Add(mix.name, fmt.Sprintf("%.2f", FitExponent(points)),
			fmt.Sprintf("%d/%d", exhausted, total), FormatPoints(points))
	}
	return []*Table{t}, nil
}

// twoOpInstance generates a random single-address execution with exactly
// two simple operations (read or write) per history.
func twoOpInstance(rng *rand.Rand, histories int, writeFrac float64, values int) *memory.Execution {
	exec := &memory.Execution{}
	exec.SetInitial(0, 0)
	op := func() memory.Op {
		v := memory.Value(rng.Intn(values))
		if rng.Float64() < writeFrac {
			return memory.W(0, v)
		}
		return memory.R(0, v)
	}
	for p := 0; p < histories; p++ {
		exec.Histories = append(exec.Histories, memory.History{op(), op()})
	}
	return exec
}
