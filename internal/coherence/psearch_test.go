package coherence

import (
	"context"
	"math/rand"
	"testing"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// hardIncoherentExec builds a deterministic instance whose search space
// is large and whose verdict is incoherent: procs histories of
// opsPerProc writes each, every written value distinct, and a final
// value no operation writes. Every interleaving must be refuted, so the
// search visits the full memoized state space — ideal for exercising
// budgets and multi-worker coordination.
func hardIncoherentExec(procs, opsPerProc int) *memory.Execution {
	exec := &memory.Execution{Histories: make([]memory.History, procs)}
	v := memory.Value(1)
	for p := 0; p < procs; p++ {
		for i := 0; i < opsPerProc; i++ {
			exec.Histories[p] = append(exec.Histories[p], memory.W(0, v))
			v++
		}
	}
	exec.SetFinal(0, v+1) // never written: incoherent by the final-value rule
	return exec
}

// TestParallelSearchOracle is the PR 10 acceptance oracle: on 400+
// randomized instances the parallel search must return exactly the
// sequential verdict, and every coherent certificate must check. Worker
// counts cycle 2..4 so small and larger teams both see coverage.
func TestParallelSearchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	instances := 0
	for trial := 0; instances < 400; trial++ {
		var exec *memory.Execution
		if trial%4 == 3 {
			// Every fourth instance is bigger (and coherent by
			// construction), so the parallel path genuinely engages
			// instead of falling back on nops < psearchMinOps.
			exec, _ = randomCoherentTrace(rng, 2+rng.Intn(3), 3+rng.Intn(6), 1+rng.Intn(3))
		} else {
			exec = randomInstance(rng)
		}
		workers := 2 + trial%3
		for _, addr := range exec.Addresses() {
			instances++
			seq, seqErr := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), exec, addr)
			par, parErr := NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithBudget(solver.WithParallelSearch(workers))).Solve(context.Background(), exec, addr)
			if (seqErr == nil) != (parErr == nil) {
				t.Fatalf("trial %d addr %d: error mismatch: seq=%v par=%v", trial, addr, seqErr, parErr)
			}
			if seqErr != nil {
				continue
			}
			if seq.Coherent != par.Coherent {
				t.Fatalf("trial %d addr %d (workers=%d): verdict mismatch: seq=%v par=%v",
					trial, addr, workers, seq.Coherent, par.Coherent)
			}
			if !par.Decided {
				t.Fatalf("trial %d addr %d: parallel result undecided without error", trial, addr)
			}
			if par.Coherent {
				if err := memory.CheckCoherent(exec, addr, par.Schedule); err != nil {
					t.Fatalf("trial %d addr %d: invalid parallel certificate: %v", trial, addr, err)
				}
			}
		}
	}
	t.Logf("verified %d instances", instances)
}

// TestParallelSearchEngages pins the dispatch: a multi-op instance with
// ParallelSearch > 1 must actually take the parallel path (not fall
// back), report it in Algorithm, and record the workers used.
func TestParallelSearchEngages(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	exec, _ := randomCoherentTrace(rng, 4, 10, 3)
	addr := exec.Addresses()[0]
	par, err := NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithBudget(solver.WithParallelSearch(4))).Solve(context.Background(), exec, addr)
	if err != nil {
		t.Fatal(err)
	}
	if par.Algorithm != "parallel-search" {
		t.Fatalf("parallel path did not engage: algorithm=%q", par.Algorithm)
	}
	if w := par.Stats.SearchWorkers; w < 1 || w > 4 {
		t.Fatalf("SearchWorkers=%d, want 1..4", w)
	}
	if !par.Coherent {
		t.Fatal("coherent-by-construction trace judged incoherent")
	}
	if err := memory.CheckCoherent(exec, addr, par.Schedule); err != nil {
		t.Fatal(err)
	}
}

// TestParallelSearchFallsBackSequential pins every documented fallback
// to the sequential path: a checkpoint sink, memoization off, worker
// count <= 1, and tiny instances.
func TestParallelSearchFallsBackSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	exec, _ := randomCoherentTrace(rng, 3, 8, 3)
	addr := exec.Addresses()[0]
	cases := []struct {
		name string
		opts *Options
	}{
		{"sink", &solver.Options{ParallelSearch: 4, CheckpointSink: func(solver.SearchSnapshot) {}}},
		{"no-memo", solver.New(solver.WithParallelSearch(4), solver.WithoutMemoization())},
		{"one-worker", solver.New(solver.WithParallelSearch(1))},
	}
	for _, tc := range cases {
		res, err := NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithOptions(tc.opts)).Solve(context.Background(), exec, addr)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Algorithm != "general-search" {
			t.Fatalf("%s: expected sequential fallback, got algorithm=%q", tc.name, res.Algorithm)
		}
		if !res.Coherent {
			t.Fatalf("%s: wrong verdict", tc.name)
		}
	}
	// Tiny instance: below psearchMinOps the split overhead cannot pay.
	tiny := &memory.Execution{Histories: []memory.History{{memory.W(0, 1)}, {memory.R(0, 1)}}}
	res, err := NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithBudget(solver.WithParallelSearch(4))).Solve(context.Background(), tiny, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "general-search" {
		t.Fatalf("tiny instance: expected sequential fallback, got %q", res.Algorithm)
	}
}

// TestParallelSearchBudgetExact is the budget-accounting race test (run
// under -race by CI): workers exhausting a shared budget while the
// first-verdict cancellation machinery runs must never lose the
// ErrBudgetExceeded, and the merged state count must stay exact —
// within the limit plus at most one in-flight charge per worker, and
// equal to what the workers actually counted.
func TestParallelSearchBudgetExact(t *testing.T) {
	exec := hardIncoherentExec(3, 6) // full refutation needs ~7^3 states
	const limit, workers = 100, 4
	for round := 0; round < 20; round++ {
		opts := solver.New(solver.WithParallelSearch(workers), solver.WithMaxStates(limit))
		res, err := NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithOptions(opts)).Solve(context.Background(), exec, 0)
		if err == nil {
			t.Fatalf("round %d: expected budget trip, got verdict coherent=%v after %d states",
				round, res.Coherent, res.Stats.States)
		}
		be, ok := solver.AsBudgetError(err)
		if !ok {
			t.Fatalf("round %d: non-budget error: %v", round, err)
		}
		if be.Reason != solver.ExceededStates {
			t.Fatalf("round %d: reason=%v, want ExceededStates", round, be.Reason)
		}
		// Exactness: the tripping charge is counted (mirroring the
		// sequential path), and each of the other workers can be at most
		// one not-yet-tripped charge past the limit.
		if be.Stats.States < limit || be.Stats.States > limit+workers {
			t.Fatalf("round %d: merged states=%d, want in [%d, %d]",
				round, be.Stats.States, limit, limit+workers)
		}
	}
}

// TestParallelSearchBudgetRacesVerdict races budget exhaustion against
// a first-verdict win: on a coherent instance with a budget near the
// typical solve cost, every outcome must be either a valid certificate
// or an honest budget error — never a wrong verdict and never a lost
// trip. Run under -race this also exercises winner-CAS vs budget-CAS
// ordering.
func TestParallelSearchBudgetRacesVerdict(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 40; round++ {
		exec, _ := randomCoherentTrace(rng, 3, 8, 2)
		addr := exec.Addresses()[0]
		limit := 1 + rng.Intn(60)
		opts := solver.New(solver.WithParallelSearch(4), solver.WithMaxStates(limit))
		res, err := NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithOptions(opts)).Solve(context.Background(), exec, addr)
		if err != nil {
			be, ok := solver.AsBudgetError(err)
			if !ok {
				t.Fatalf("round %d: non-budget error: %v", round, err)
			}
			if be.Stats.States > limit+4 {
				t.Fatalf("round %d: overshoot: states=%d limit=%d", round, be.Stats.States, limit)
			}
			continue
		}
		if !res.Coherent {
			t.Fatalf("round %d: coherent-by-construction trace judged incoherent", round)
		}
		if cerr := memory.CheckCoherent(exec, addr, res.Schedule); cerr != nil {
			t.Fatalf("round %d: invalid certificate: %v", round, cerr)
		}
	}
}

// TestParallelSearchCancellation: a context cancelled before (or during)
// the solve must surface as a Canceled budget error, never as a verdict.
func TestParallelSearchCancellation(t *testing.T) {
	exec := hardIncoherentExec(3, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithBudget(solver.WithParallelSearch(4))).Solve(ctx, exec, 0)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	be, ok := solver.AsBudgetError(err)
	if !ok || be.Reason != solver.Canceled {
		t.Fatalf("got %v, want Canceled budget error", err)
	}
}

// TestParallelSearchIncoherentComplete: an incoherent verdict from the
// parallel search requires the frontier to be fully drained, so the
// unbounded search on the hard instance must refute completely and
// agree with the sequential count's verdict.
func TestParallelSearchIncoherentComplete(t *testing.T) {
	exec := hardIncoherentExec(3, 5)
	seq, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), exec, 0)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithBudget(solver.WithParallelSearch(4))).Solve(context.Background(), exec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Coherent || par.Coherent {
		t.Fatalf("impossible final judged coherent: seq=%v par=%v", seq.Coherent, par.Coherent)
	}
	if par.Algorithm != "parallel-search" {
		t.Fatalf("parallel path did not engage: %q", par.Algorithm)
	}
}

// TestVerifyParallelWithTeams: Verify with a psearch team configured
// must stay correct across a multi-address execution; every address's
// exact search takes the team, one address at a time.
func TestVerifyParallelWithTeams(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	exec := &memory.Execution{}
	// Three addresses of different sizes built from single-address
	// coherent traces glued into one execution.
	for a := memory.Addr(0); a < 3; a++ {
		sub, _ := randomCoherentTrace(rng, 3, 4+int(a)*3, 2)
		for p, h := range sub.Histories {
			for p >= len(exec.Histories) {
				exec.Histories = append(exec.Histories, nil)
			}
			for _, o := range h {
				o.Addr = a
				exec.Histories[p] = append(exec.Histories[p], o)
			}
		}
		if d, ok := sub.Initial[0]; ok {
			exec.SetInitial(a, d)
		}
	}
	v := NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithBudget(solver.WithParallelSearch(4)))
	rep, err := v.Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Coherent() {
		t.Fatalf("coherent-by-construction execution judged %v", rep.Verdict)
	}
	for i := range rep.Addrs {
		ar := &rep.Addrs[i]
		if ar.Result == nil || !ar.Result.Coherent {
			t.Fatalf("addr %d: bad report", ar.Addr)
		}
		if err := memory.CheckCoherent(exec, ar.Addr, ar.Result.Schedule); err != nil {
			t.Fatalf("addr %d: invalid certificate: %v", ar.Addr, err)
		}
		if ar.Result.Algorithm != "parallel-search" {
			t.Fatalf("addr %d: decided by %q, want the team's parallel-search", ar.Addr, ar.Result.Algorithm)
		}
	}
}
