package coherence

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"memverify/internal/memory"
	"memverify/internal/obs"
	"memverify/internal/reduction"
	"memverify/internal/sat"
	"memverify/internal/solver"
	"memverify/internal/workload"
)

// presetSpellings are the accepted strategy spellings, the retired
// "portfolio" alias included.
var presetSpellings = []string{"auto", "fast", "portfolio", "exact", "resilient"}

// presetCorpus is the randomized corpus of the preset oracle test:
// workload-generator traces (multi-address, half with an injected
// violation), fully random tiny instances, small Figure 4.1/5.1/5.2
// reductions of random 3-CNF formulas, and a small relay with its
// phantom-read variant.
func presetCorpus(t *testing.T) []*memory.Execution {
	t.Helper()
	var corpus []*memory.Execution
	for _, tc := range parityTraces(t, 16) {
		corpus = append(corpus, tc.exec)
	}
	rng := rand.New(rand.NewSource(97))
	for i := 0; i < 40; i++ {
		corpus = append(corpus, randomInstance(rng))
	}
	for i := 0; i < 3; i++ {
		q := sat.RandomKSAT(rng, 3, 3+i, 3)
		for _, build := range []func(*sat.Formula) (*reduction.VMCInstance, error){
			reduction.SATToVMC, reduction.ThreeSATToVMCRestricted, reduction.ThreeSATToVMCRMW,
		} {
			inst, err := build(q)
			if err != nil {
				t.Fatal(err)
			}
			corpus = append(corpus, inst.Exec)
		}
	}
	for _, phantom := range []bool{false, true} {
		corpus = append(corpus, workload.GenerateRelay(workload.RelayConfig{
			Processors: 3, Rounds: 4, Decoys: 1, Phantom: phantom}))
	}
	return corpus
}

// checkPreset holds one report to the preset contract: the reference
// verdict, a certificate that re-checks on every ACCEPT, and the
// algorithms the preset's rungs allow.
func checkPreset(t *testing.T, label string, exec *memory.Execution, strat solver.Strategy, ar *AddrReport, want ResilientVerdict) {
	t.Helper()
	if ar.Verdict != want {
		t.Fatalf("%s: verdict %s, want %s", label, ar.Verdict, want)
	}
	alg := algorithm(ar)
	if ar.Verdict == VerdictCoherent {
		if err := memory.CheckCoherent(exec, ar.Addr, ar.Result.Schedule); err != nil {
			t.Fatalf("%s: ACCEPT certificate (%s) fails: %v", label, alg, err)
		}
	}
	switch {
	case strat == solver.StrategyExact && alg != "general-search" && alg != "parallel-search":
		t.Fatalf("%s: exact preset decided with %q", label, alg)
	case strat == solver.StrategyAuto && alg == "fastpath":
		t.Fatalf("%s: auto preset ran the fast rung", label)
	case (ar.Rung == RungFast) != (alg == "fastpath"):
		t.Fatalf("%s: rung %s with algorithm %q", label, ar.Rung, alg)
	}
}

// TestPresetOracle runs one corpus under every strategy spelling and
// through every entry point that climbs the ladder — SolveAddr, Verify
// sequentially and with a two-worker parallel-search team for each
// exact search, and SolveBatch (which clears the team) — and holds each
// report to the exact preset's verdict and to its preset's rung
// contract.
func TestPresetOracle(t *testing.T) {
	ctx := context.Background()
	corpus := presetCorpus(t)
	exact := NewVerifier(solver.WithStrategy(solver.StrategyExact))
	want := make([]map[memory.Addr]ResilientVerdict, len(corpus))
	var jobs []BatchJob
	for n, exec := range corpus {
		want[n] = map[memory.Addr]ResilientVerdict{}
		for _, a := range exec.Addresses() {
			ar, err := exact.SolveAddr(ctx, exec, a)
			if err != nil {
				t.Fatalf("instance %d addr %d: exact: %v", n, a, err)
			}
			if len(exec.Histories) > 0 && exec.NumOps() <= 10 {
				if ok, _ := bruteForceCoherent(exec, a); ok != (ar.Verdict == VerdictCoherent) {
					t.Fatalf("instance %d addr %d: exact says %s, brute force coherent=%v", n, a, ar.Verdict, ok)
				}
			}
			want[n][a] = ar.Verdict
			jobs = append(jobs, BatchJob{Exec: exec, Addr: a})
		}
	}

	for _, spelling := range presetSpellings {
		strat, err := solver.ParseStrategy(spelling)
		if err != nil {
			t.Fatal(err)
		}
		v := NewVerifier(solver.WithStrategy(strat))
		decidedBy := map[string]int{}
		for n, exec := range corpus {
			for _, a := range exec.Addresses() {
				ar, err := v.SolveAddr(ctx, exec, a)
				if err != nil {
					t.Fatalf("%s instance %d addr %d: SolveAddr: %v", spelling, n, a, err)
				}
				checkPreset(t, fmt.Sprintf("%s SolveAddr instance %d addr %d", spelling, n, a), exec, strat, ar, want[n][a])
				decidedBy[algorithm(ar)]++
			}
			for _, psearch := range []int{0, 2} {
				rep, err := NewVerifier(solver.WithStrategy(strat), solver.WithBudget(solver.WithParallelSearch(psearch))).Verify(ctx, exec)
				if err != nil {
					t.Fatalf("%s instance %d: Verify(psearch=%d): %v", spelling, n, psearch, err)
				}
				for i := range rep.Addrs {
					ar := &rep.Addrs[i]
					checkPreset(t, fmt.Sprintf("%s Verify(psearch=%d) instance %d addr %d", spelling, psearch, n, ar.Addr),
						exec, strat, ar, want[n][ar.Addr])
				}
			}
		}
		// The corpus must reach the rungs each preset opens with.
		switch strat {
		case solver.StrategyFast, solver.StrategyResilient:
			if decidedBy["fastpath"] == 0 {
				t.Errorf("%s: the fast rung decided nothing: %v", spelling, decidedBy)
			}
		case solver.StrategyAuto:
			if decidedBy["read-map"]+decidedBy["single-op"]+decidedBy["rmw-euler"] == 0 || decidedBy["general-search"] == 0 {
				t.Errorf("%s: specialists or exact search never decided: %v", spelling, decidedBy)
			}
		}
		bv := NewVerifier(solver.WithStrategy(strat), solver.WithBudget(solver.WithParallelSearch(2)))
		for i, br := range bv.SolveBatch(ctx, jobs) {
			if br.Err != nil {
				t.Fatalf("%s SolveBatch job %d: %v", spelling, i, br.Err)
			}
			j := jobs[i]
			checkPreset(t, fmt.Sprintf("%s SolveBatch job %d", spelling, i), j.Exec, strat, &br.AddrReport, want[indexOf(corpus, j.Exec)][j.Addr])
		}
	}
}

// indexOf returns the corpus position of exec.
func indexOf(corpus []*memory.Execution, exec *memory.Execution) int {
	for i, e := range corpus {
		if e == exec {
			return i
		}
	}
	return -1
}

// TestLadderCountsEveryRung: an address whose fast rung is inconclusive
// is one solve — the live solve counter moves once — and its report adds
// up the work of every rung tried, the inconclusive frontline included.
func TestLadderCountsEveryRung(t *testing.T) {
	// Not forced: the frontline is inconclusive and the exact search
	// refutes.
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1)},
		memory.History{memory.W(0, 2)},
		memory.History{memory.R(0, 1), memory.R(0, 2), memory.R(0, 1)},
	).SetInitial(0, 0)
	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), &obs.Observer{Registry: reg})
	m := reg.Search()
	for _, strat := range []solver.Strategy{solver.StrategyFast, solver.StrategyResilient} {
		begun, done := m.SolvesBegun.Value(), m.SolvesDone.Value()
		ar, err := NewVerifier(solver.WithStrategy(strat)).SolveAddr(ctx, exec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ar.Verdict != VerdictIncoherent || ar.Rung != RungExact {
			t.Fatalf("%v: verdict=%s rung=%s, want incoherent at exact", strat, ar.Verdict, ar.Rung)
		}
		if got := ar.Stats.States - ar.Result.Stats.States; got != exec.NumOps() {
			t.Errorf("%v: report counts %d states beyond the deciding search, want the frontline's %d",
				strat, got, exec.NumOps())
		}
		if b, d := m.SolvesBegun.Value()-begun, m.SolvesDone.Value()-done; b != 1 || d != 1 {
			t.Errorf("%v: %d solves begun, %d done, want 1 each", strat, b, d)
		}
	}
}
