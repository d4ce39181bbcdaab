package coherence

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"memverify/internal/memory"
	"memverify/internal/solver"
	"memverify/internal/workload"
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

// relayAllocConfig is the 10⁵-op relay of the fast path's allocation
// guard: the perfbench relay cut to a tenth of its rounds.
var relayAllocConfig = workload.RelayConfig{Processors: 4, Rounds: 1390, Decoys: 16}

// TestFastPathRelayAllocs is the allocation guard for the fast path: a
// relay verified with StrategyFast allocates a bounded number of bytes
// per trace operation and a bounded number of times however long the
// trace is. The coherent relay pays for the writer tables, placement
// and its certificate (about 69 B and 100 allocations); the phantom
// variant stops at the REJECT rules (about 24 B). An allocation per read
// fails the count bound; stored program-order chains together with a
// per-write ref copy of the write order fail the byte bound.
func TestFastPathRelayAllocs(t *testing.T) {
	ctx := context.Background()
	v := NewVerifier(solver.WithStrategy(solver.StrategyFast))
	for _, tc := range []struct {
		phantom        bool
		want           ResilientVerdict
		maxBytesPerOp  float64
		maxAllocations float64
	}{
		{phantom: false, want: VerdictCoherent, maxBytesPerOp: 100, maxAllocations: 200},
		{phantom: true, want: VerdictIncoherent, maxBytesPerOp: 40, maxAllocations: 200},
	} {
		cfg := relayAllocConfig
		cfg.Phantom = tc.phantom
		exec := workload.GenerateRelay(cfg)
		verify := func() {
			rep, err := v.Verify(ctx, exec)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Verdict != tc.want {
				t.Fatalf("phantom=%v: verdict %s, want %s", tc.phantom, rep.Verdict, tc.want)
			}
		}
		verify()
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			verify()
		}
		runtime.ReadMemStats(&after)
		perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(exec.NumOps())
		allocs := testing.AllocsPerRun(runs, verify)
		t.Logf("phantom=%v: %d ops, %.1f B/op, %.0f allocations", tc.phantom, exec.NumOps(), perOp, allocs)
		if perOp > tc.maxBytesPerOp {
			t.Errorf("phantom=%v: Verify allocated %.1f bytes per trace op, want at most %.0f", tc.phantom, perOp, tc.maxBytesPerOp)
		}
		if allocs > tc.maxAllocations {
			t.Errorf("phantom=%v: Verify made %.0f allocations, want at most %.0f", tc.phantom, allocs, tc.maxAllocations)
		}
	}
}

// BenchmarkFastPathRelay prices a StrategyFast Verify of the 10⁵-op
// relay, coherent and with its phantom read.
func BenchmarkFastPathRelay(b *testing.B) {
	for _, phantom := range []bool{false, true} {
		cfg := relayAllocConfig
		cfg.Phantom = phantom
		exec := workload.GenerateRelay(cfg)
		name := "accept"
		if phantom {
			name = "reject"
		}
		b.Run(name, func(b *testing.B) {
			v := NewVerifier(solver.WithStrategy(solver.StrategyFast))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := v.Verify(context.Background(), exec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// wideExecution has n two-op addresses: P0 writes each address once and
// P1 reads the value back.
func wideExecution(n int) *memory.Execution {
	exec := &memory.Execution{Histories: make([]memory.History, 2)}
	for a := 0; a < n; a++ {
		exec.Histories[0] = append(exec.Histories[0], memory.W(memory.Addr(a), 1))
		exec.Histories[1] = append(exec.Histories[1], memory.R(memory.Addr(a), 1))
	}
	return exec
}

// TestVerifyWideAllocs is the allocation guard for the address loop's
// one-pass projection: Verify on 2,000 two-op addresses allocates at
// most 14 times per address. Projecting each address on its own — a
// full scan of the execution and fresh histories per address — costs
// 19 per address and makes Verify quadratic in the address count.
func TestVerifyWideAllocs(t *testing.T) {
	const n = 2000
	ctx := context.Background()
	exec := wideExecution(n)
	v := NewVerifier()
	allocs := testing.AllocsPerRun(3, func() {
		rep, err := v.Verify(ctx, exec)
		if err != nil || !rep.Coherent() || len(rep.Addrs) != n {
			t.Fatalf("wide execution: verdict %v over %d addresses (err %v)", rep.Verdict, len(rep.Addrs), err)
		}
	})
	if per := allocs / n; per > 14 {
		t.Errorf("Verify allocated %.1f times per address, want at most 14", per)
	}
}

// TestVerifyManyProcessesBoundedProjection: a pass of the address
// loop's projection keeps (address, process) tables, so 500 processes
// that each write 10 addresses of their own would need 2.5 million
// history headers — about 160 MB — in one pass. The loop splits the
// addresses into passes whose tables are about the execution's size,
// and Verify stays within a few megabytes.
func TestVerifyManyProcessesBoundedProjection(t *testing.T) {
	const procs, perProc = 500, 10
	exec := &memory.Execution{Histories: make([]memory.History, procs)}
	for p := range exec.Histories {
		for i := 0; i < perProc; i++ {
			exec.Histories[p] = append(exec.Histories[p], memory.W(memory.Addr(p*perProc+i), 1))
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := NewVerifier().Verify(context.Background(), exec)
	runtime.ReadMemStats(&after)
	if err != nil || !rep.Coherent() || len(rep.Addrs) != procs*perProc {
		t.Fatalf("verdict %v over %d addresses (err %v)", rep.Verdict, len(rep.Addrs), err)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > 32 {
		t.Errorf("Verify allocated %.1f MB for %d ops, want at most 32", mb, exec.NumOps())
	}
}

// BenchmarkVerifyWide prices Verify and SolveBatch over the same
// 2,000–20,000 two-op addresses; both run the one address loop, so their
// time per address stays flat as the address count grows.
func BenchmarkVerifyWide(b *testing.B) {
	ctx := context.Background()
	v := NewVerifier()
	for _, n := range []int{2000, 20000} {
		exec := wideExecution(n)
		jobs := make([]BatchJob, n)
		for a := range jobs {
			jobs[a] = BatchJob{Exec: exec, Addr: memory.Addr(a)}
		}
		b.Run(fmt.Sprintf("verify/addrs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := v.Verify(ctx, exec); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("batch/addrs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, br := range v.SolveBatch(ctx, jobs) {
					if br.Err != nil {
						b.Fatal(br.Err)
					}
				}
			}
		})
	}
}
