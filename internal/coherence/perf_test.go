package coherence

import (
	"context"
	"math/rand"
	"testing"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// incoherentSearchTrace builds a deterministic instance that forces the
// general search to exhaust its reachable state space: a coherent random
// trace with one read corrupted to a phantom value, so no schedule
// exists and every memoizable state is visited exactly once.
func incoherentSearchTrace(seed int64, nproc, opsPerProc int) *memory.Execution {
	rng := rand.New(rand.NewSource(seed))
	exec, _ := randomCoherentTrace(rng, nproc, opsPerProc, 3)
	for p, h := range exec.Histories {
		for i := len(h) - 1; i >= 0; i-- {
			if h[i].Kind == memory.Read {
				exec.Histories[p][i] = memory.R(0, 999) // phantom: never written
				return exec
			}
		}
	}
	panic("trace has no read to corrupt")
}

// TestPackedSearchZeroAllocPerState is the allocation guard for the
// packed hot path: a solve visiting thousands of states must cost only
// the fixed per-solve allocations (searcher, budget, layout, result) —
// zero allocations per state. A regression that reintroduces a
// per-state allocation (key strings, candidate slices, undo closures)
// fails this by two orders of magnitude.
func TestPackedSearchZeroAllocPerState(t *testing.T) {
	ctx := context.Background()
	exec := incoherentSearchTrace(45, 3, 35)
	res, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(ctx, exec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coherent {
		t.Fatal("corrupted trace must be incoherent")
	}
	states := res.Stats.States
	if states < 3000 {
		t.Fatalf("only %d states: instance too easy to separate per-state from per-solve allocations", states)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(ctx, exec, 0); err != nil {
			t.Fatal(err)
		}
	})
	// Fixed per-solve overhead is a few dozen allocations (layout, value
	// table, budget, result, observability lookups); the bound is far
	// below one per state but leaves room for pool misses after a GC.
	const perSolveBudget = 200
	if allocs > perSolveBudget {
		t.Errorf("%.0f allocs for a %d-state solve (%.3f/state); packed path must not allocate per state",
			allocs, states, allocs/float64(states))
	}
}

// BenchmarkMemoKey prices one memo probe+insert on the packed path:
// pack the state into its key, probe the set, insert on a miss. It must
// report 0 allocs/op.
func BenchmarkMemoKey(b *testing.B) {
	rng := rand.New(rand.NewSource(46))
	exec, _ := randomCoherentTrace(rng, 4, 16, 3)
	var pg program
	pg.compileInstance(project(exec, 0))
	s := (&searcher{}).fresh(&pg)
	var memo solver.MemoSet
	memo.Reset(pg.layout.Words(), 1024)
	key := s.keyAt(0)
	nvals := pg.valOff[1]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Cycle through a deterministic sequence of states.
		for h := range s.pos {
			s.pos[h] = (i >> (3 * h)) & 7 % (len(pg.hist[h]) + 1)
		}
		s.val[0] = uint32(i % (nvals + 1))
		s.pack(key)
		if !memo.Contains(key) {
			memo.Add(key)
		}
	}
}

// BenchmarkSearchAllocs prices a whole exact-search solve; run with
// -benchmem to see its per-solve allocations.
func BenchmarkSearchAllocs(b *testing.B) {
	exec := incoherentSearchTrace(47, 3, 14)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), exec, 0); err != nil {
			b.Fatal(err)
		}
	}
}
