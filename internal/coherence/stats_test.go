package coherence

import (
	"context"
	"testing"

	"memverify/internal/memory"
	"memverify/internal/obs"
)

// statsEqual compares two Stats ignoring wall-clock Duration (the only
// field that legitimately differs between identical solves).
func statsEqual(a, b Stats) bool {
	a.Duration, b.Duration = 0, 0
	return a == b
}

// generalSearchExec builds an execution where every address needs the
// general memoized search: duplicated write values rule out the read-map
// specialist and multi-op histories rule out the single-op ones.
func generalSearchExec(naddr int) *memory.Execution {
	exec := &memory.Execution{Histories: make([]memory.History, 2)}
	for a := 0; a < naddr; a++ {
		addr := memory.Addr(a)
		exec.SetInitial(addr, 0)
		exec.Histories[0] = append(exec.Histories[0],
			memory.W(addr, 1), memory.R(addr, 1), memory.W(addr, 1))
		exec.Histories[1] = append(exec.Histories[1],
			memory.R(addr, 1), memory.W(addr, 1), memory.R(addr, 1))
	}
	return exec
}

// TestParallelMetricsAggregation attaches a registry to Verify, with a
// sequential exact search and with a two-worker parallel-search team,
// and checks its search counters reconcile exactly with the per-address
// solver.Stats: total states equal the merged sum (no delta flushed
// twice, none lost) and the solve counter matches the address count.
func TestParallelMetricsAggregation(t *testing.T) {
	for _, tc := range []struct {
		psearch   int
		algorithm string
	}{{0, "general-search"}, {2, "parallel-search"}} {
		metricsAggregation(t, tc.psearch, tc.algorithm)
	}
}

func metricsAggregation(t *testing.T, psearch int, algorithm string) {
	exec := generalSearchExec(3)
	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), &obs.Observer{Registry: reg})
	par, err := verifyMap(ctx, exec, nil, psearch)
	if err != nil {
		t.Fatal(err)
	}
	var sum Stats
	for _, r := range par {
		if r.Algorithm != algorithm {
			t.Fatalf("psearch %d: algorithm = %q, want %s (the test's premise)", psearch, r.Algorithm, algorithm)
		}
		sum.Merge(r.Stats)
	}
	m := reg.Search()
	if got := m.States.Value(); got != int64(sum.States) {
		t.Errorf("metrics states = %d, merged solver stats say %d", got, sum.States)
	}
	if m.MemoHits.Value() != int64(sum.MemoHits) || m.MemoMisses.Value() != int64(sum.MemoMisses) {
		t.Errorf("metrics memo = %d/%d, merged stats say %d/%d",
			m.MemoHits.Value(), m.MemoMisses.Value(), sum.MemoHits, sum.MemoMisses)
	}
	if got := m.EagerReads.Value(); got != int64(sum.EagerReads) {
		t.Errorf("metrics eager reads = %d, merged stats say %d", got, sum.EagerReads)
	}
	if got := m.Branches.Value(); got != int64(sum.Branches) {
		t.Errorf("metrics branches = %d, merged stats say %d", got, sum.Branches)
	}
	if got := m.PeakDepth.Value(); int64(sum.PeakDepth) > got {
		t.Errorf("metrics peak depth = %d below solver peak %d", got, sum.PeakDepth)
	}
	if m.SolvesBegun.Value() != 3 || m.SolvesDone.Value() != 3 {
		t.Errorf("metrics solves = %d/%d, want 3/3 (one per address)", m.SolvesDone.Value(), m.SolvesBegun.Value())
	}
}
