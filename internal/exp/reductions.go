package exp

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"memverify/internal/coherence"
	"memverify/internal/consistency"
	"memverify/internal/memory"
	"memverify/internal/reduction"
	"memverify/internal/sat"
	"memverify/internal/solver"
)

// randomFormula draws a CNF with clauses of one to three literals.
func randomFormula(rng *rand.Rand, nvars, nclauses int) *sat.Formula {
	f := &sat.Formula{NumVars: nvars}
	for j := 0; j < nclauses; j++ {
		clen := 1 + rng.Intn(3)
		c := make(sat.Clause, 0, clen)
		for k := 0; k < clen; k++ {
			l := sat.Lit(1 + rng.Intn(nvars))
			if rng.Intn(2) == 0 {
				l = l.Neg()
			}
			c = append(c, l)
		}
		f.Clauses = append(f.Clauses, c)
	}
	return f
}

// reductionKind abstracts over the single-address constructions so the
// three reduction experiments share one driver.
type reductionKind struct {
	name  string
	build func(*sat.Formula) (*reduction.VMCInstance, error)
	// check validates the instance's structural restriction; empty
	// string means satisfied.
	check func(reduction.Restrictions) string
}

// runVMCReduction measures one construction across variable counts:
// instance sizes, SAT agreement, decoded-certificate validity, and solve
// cost.
func runVMCReduction(ctx context.Context, cfg Config, kind reductionKind, sizes []int) (*Table, error) {
	rng := cfg.rng()
	samples := pick(cfg, 6, 20)

	t := &Table{
		Header: []string{"vars m", "clauses n", "histories", "ops", "agree", "certs ok", "restriction", "mean solve"},
		Caption: "agree: solver verdict on the reduced instance matches brute-force SAT;\n" +
			"certs ok: decoded schedules satisfy the formula.",
	}
	for _, m := range sizes {
		n := 2 * m
		agree, certsOK := 0, 0
		var hist, ops int
		restriction := "ok"
		var total time.Duration
		for s := 0; s < samples; s++ {
			q := randomFormula(rng, m, n)
			want, err := sat.SolveBrute(q)
			if err != nil {
				return nil, err
			}
			inst, err := kind.build(q)
			if err != nil {
				return nil, err
			}
			meas := reduction.Measure(inst.Exec, inst.Addr)
			hist, ops = meas.Histories, meas.Operations
			if msg := kind.check(meas); msg != "" {
				restriction = msg
			}
			start := time.Now()
			res, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(ctx, inst.Exec, inst.Addr)
			total += time.Since(start)
			if err != nil {
				return nil, err
			}
			if res.Coherent == want.Satisfiable {
				agree++
			}
			if res.Coherent {
				if memory.CheckCoherent(inst.Exec, inst.Addr, res.Schedule) == nil {
					if asg, err := inst.DecodeAssignment(res.Schedule); err == nil && asg.Satisfies(q) {
						certsOK++
					}
				}
			} else {
				certsOK++ // vacuously
			}
		}
		t.Add(
			fmt.Sprint(m), fmt.Sprint(n), fmt.Sprint(hist), fmt.Sprint(ops),
			fmt.Sprintf("%d/%d", agree, samples),
			fmt.Sprintf("%d/%d", certsOK, samples),
			restriction,
			fmt.Sprintf("%.3gs", (total/time.Duration(samples)).Seconds()),
		)
	}
	return t, nil
}

// E1Reduction regenerates Figure 4.1/4.2: the general SAT -> VMC
// construction, its 2m+3 histories / O(mn) operations size, and the
// Lemma 4.3 equivalence.
func E1Reduction(ctx context.Context, cfg Config) ([]*Table, error) {
	t, err := runVMCReduction(ctx, cfg, reductionKind{
		name:  "fig4.1",
		build: reduction.SATToVMC,
		check: func(r reduction.Restrictions) string { return "ok" },
	}, pick(cfg, []int{1, 2, 3}, []int{1, 2, 3, 4, 5}))
	if err != nil {
		return nil, err
	}
	t.Caption += "\npaper: 2m+3 histories, O(mn) operations (Figure 4.1); coherent iff satisfiable (Lemma 4.3)."
	return []*Table{t}, nil
}

// E2Restricted regenerates Figure 5.1: the restricted construction with
// at most 3 operations per process and 2 writes per value.
func E2Restricted(ctx context.Context, cfg Config) ([]*Table, error) {
	t, err := runVMCReduction(ctx, cfg, reductionKind{
		name:  "fig5.1",
		build: reduction.ThreeSATToVMCRestricted,
		check: func(r reduction.Restrictions) string {
			if r.MaxOpsPerProcess > 3 {
				return fmt.Sprintf("VIOLATED: %d ops/process", r.MaxOpsPerProcess)
			}
			if r.MaxWritesPerValue > 2 {
				return fmt.Sprintf("VIOLATED: %d writes/value", r.MaxWritesPerValue)
			}
			return "≤3 ops/proc, ≤2 w/val"
		},
		// The restricted instances are the hardest for the complete
		// search (state counts multiply ~100x per variable), so sizes
		// stay small even in full mode.
	}, pick(cfg, []int{1, 2}, []int{1, 2, 3}))
	if err != nil {
		return nil, err
	}
	t.Caption += "\npaper: NP-Complete with 3 operations/process and values written at most twice (Figure 5.1)."
	return []*Table{t}, nil
}

// E3RMW regenerates Figure 5.2: the RMW-only construction with at most 2
// RMWs per process and 3 writes per value.
func E3RMW(ctx context.Context, cfg Config) ([]*Table, error) {
	t, err := runVMCReduction(ctx, cfg, reductionKind{
		name:  "fig5.2",
		build: reduction.ThreeSATToVMCRMW,
		check: func(r reduction.Restrictions) string {
			if !r.AllRMW {
				return "VIOLATED: non-RMW op"
			}
			if r.MaxOpsPerProcess > 2 {
				return fmt.Sprintf("VIOLATED: %d ops/process", r.MaxOpsPerProcess)
			}
			if r.MaxWritesPerValue > 3 {
				return fmt.Sprintf("VIOLATED: %d writes/value", r.MaxWritesPerValue)
			}
			return "RMW-only, ≤2/proc, ≤3 w/val"
		},
	}, pick(cfg, []int{1, 2, 3}, []int{1, 2, 3, 4, 5}))
	if err != nil {
		return nil, err
	}
	t.Caption += "\npaper: NP-Complete with 2 RMWs/process and values written at most three times (Figure 5.2)."
	return []*Table{t}, nil
}

// E5LRC regenerates Figure 6.1: the synchronized instance, verified
// under Lazy Release Consistency semantics.
func E5LRC(ctx context.Context, cfg Config) ([]*Table, error) {
	rng := cfg.rng()
	sizes := pick(cfg, []int{1, 2}, []int{1, 2, 3, 4})
	samples := pick(cfg, 6, 20)
	t := &Table{
		Header: []string{"vars m", "clauses n", "ops (incl. sync)", "discipline", "agree"},
		Caption: "agree: the LRC verifier on the acquire/release-bracketed instance matches brute-force SAT.\n" +
			"paper: the reduction extends to models that relax coherence but provide synchronization (§6.2, Figure 6.1).",
	}
	for _, m := range sizes {
		n := 2 * m
		agree := 0
		var ops int
		disc := ""
		for s := 0; s < samples; s++ {
			q := randomFormula(rng, m, n)
			want, err := sat.SolveBrute(q)
			if err != nil {
				return nil, err
			}
			inst, err := reduction.SATToVMCSynchronized(q)
			if err != nil {
				return nil, err
			}
			ops = inst.Exec.NumOps()
			disc = consistency.CheckDiscipline(inst.Exec).String()
			res, err := consistency.NewVerifier(consistency.LRC).Verify(ctx, inst.Exec)
			if err != nil {
				return nil, err
			}
			if res.Consistent == want.Satisfiable {
				agree++
			}
		}
		t.Add(fmt.Sprint(m), fmt.Sprint(n), fmt.Sprint(ops), disc, fmt.Sprintf("%d/%d", agree, samples))
	}
	return []*Table{t}, nil
}

// E6VSCC regenerates Figures 6.2 and 6.3: the multi-address VSCC
// construction is coherent at every address by construction, yet
// sequentially consistent iff the formula is satisfiable.
func E6VSCC(ctx context.Context, cfg Config) ([]*Table, error) {
	rng := cfg.rng()
	sizes := pick(cfg, []int{1, 2}, []int{1, 2, 3})
	samples := pick(cfg, 6, 15)
	t := &Table{
		Header: []string{"vars m", "clauses n", "histories", "addresses", "promise holds", "agree", "mean VSC states"},
		Caption: "promise holds: every address has a coherent schedule regardless of satisfiability (Figure 6.3);\n" +
			"agree: SC verdict matches brute-force SAT (§6.3: VSCC is NP-Complete despite the promise).",
	}
	for _, m := range sizes {
		n := 2 * m
		promise, agree := 0, 0
		var hist, addrs, states int
		for s := 0; s < samples; s++ {
			q := randomFormula(rng, m, n)
			want, err := sat.SolveBrute(q)
			if err != nil {
				return nil, err
			}
			inst, err := reduction.SATToVSCC(q)
			if err != nil {
				return nil, err
			}
			hist = len(inst.Exec.Histories)
			addrs = len(inst.Exec.Addresses())
			rep, err := coherence.NewVerifier().Verify(ctx, inst.Exec)
			if err != nil {
				return nil, err
			}
			if rep.Coherent() {
				promise++
			}
			res, err := consistency.NewVerifier(consistency.SC).Verify(ctx, inst.Exec)
			if err != nil {
				return nil, err
			}
			states += res.Stats.States
			if res.Consistent == want.Satisfiable {
				agree++
			}
		}
		t.Add(fmt.Sprint(m), fmt.Sprint(n), fmt.Sprint(hist), fmt.Sprint(addrs),
			fmt.Sprintf("%d/%d", promise, samples),
			fmt.Sprintf("%d/%d", agree, samples),
			fmt.Sprint(states/samples))
	}
	return []*Table{t}, nil
}
