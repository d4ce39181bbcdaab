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

// mutateState cycles the searcher through a deterministic sequence of
// valid states, shared by both BenchmarkMemoKey variants.
func mutateState(s *searcher, l *packedLayout, i int) {
	for h := range s.pos {
		s.pos[h] = (i >> (3 * h)) & 7 % (len(s.inst.hist[h]) + 1)
	}
	if len(l.vals) > 0 {
		s.cur, s.bound = l.vals[i%len(l.vals)], i%2 == 0
	}
}

// BenchmarkMemoKey prices one memo probe+insert on each representation:
// the packed path (uint64 pack + open-addressing set) against the
// fallback (varint string key + Go map). The packed path must report
// 0 allocs/op — the string path pays a key allocation per state.
func BenchmarkMemoKey(b *testing.B) {
	rng := rand.New(rand.NewSource(46))
	exec, _ := randomCoherentTrace(rng, 4, 16, 3)
	inst := project(exec, 0)
	l := new(packedLayout)
	if !l.build(inst) {
		b.Fatal("bench instance must fit the packed layout")
	}
	b.Run("packed", func(b *testing.B) {
		b.ReportAllocs()
		s := &searcher{inst: inst, pos: make([]int, len(inst.hist))}
		var ps packedSet
		ps.reset()
		for i := 0; i < b.N; i++ {
			mutateState(s, l, i)
			k := l.pack(s.pos, s.cur, s.bound)
			if !ps.contains(k) {
				ps.add(k)
			}
		}
	})
	b.Run("string", func(b *testing.B) {
		b.ReportAllocs()
		s := &searcher{inst: inst, pos: make([]int, len(inst.hist))}
		memo := make(map[string]struct{})
		for i := 0; i < b.N; i++ {
			mutateState(s, l, i)
			k := s.key()
			if _, seen := memo[k]; !seen {
				memo[k] = struct{}{}
			}
		}
	})
}

// BenchmarkSearchAllocs prices a whole general-search solve on each memo
// representation; run with -benchmem to see the allocation gap the
// packed path opens (the ns/op gap tracks it).
func BenchmarkSearchAllocs(b *testing.B) {
	exec := incoherentSearchTrace(47, 3, 14)
	for _, v := range []struct {
		name string
		opts *Options
	}{
		{"packed", nil},
		{"string", solver.New(solver.WithoutPackedMemo())},
	} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithOptions(v.opts)).Solve(context.Background(), exec, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
