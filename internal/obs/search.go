package obs

import (
	"context"
	"sync/atomic"
)

// SearchCounters are the live search instruments of one Registry: the
// counters every solver in a run flushes into, served at /metrics and
// /debug/vars and sampled by the progress reporter. Searchers accumulate
// into their private solver.Stats and flush deltas here at their
// every-64-states budget poll, so the per-state hot path never touches
// an atomic.
//
// A Registry resolves the set once (Registry.Search), so a solve finds
// its handles without a map lookup or a lock. A nil *SearchCounters is a
// valid no-op receiver for every method.
type SearchCounters struct {
	States, MemoHits, MemoMisses, EagerReads, Branches Counter
	// SolvesBegun and SolvesDone count per-address solves (one per
	// whole-execution SC or TSO/PSO search).
	SolvesBegun, SolvesDone Counter
	// Depth is the search depth at the most recent flush.
	Depth, PeakDepth Gauge

	solveBase atomic.Int64 // States at the most recent SolveBegin
}

// Search returns the registry's search counters, registering them on
// first use. Nil-safe: a nil registry has none.
func (r *Registry) Search() *SearchCounters {
	if r == nil {
		return nil
	}
	r.searchOnce.Do(func() {
		c := &SearchCounters{
			States:      r.Counter("memverify_search_states_total"),
			MemoHits:    r.Counter("memverify_search_memo_hits_total"),
			MemoMisses:  r.Counter("memverify_search_memo_misses_total"),
			EagerReads:  r.Counter("memverify_search_eager_reads_total"),
			Branches:    r.Counter("memverify_search_branches_total"),
			SolvesBegun: r.Counter("memverify_address_solves_begun_total"),
			SolvesDone:  r.Counter("memverify_address_solves_done_total"),
			Depth:       r.Gauge("memverify_search_depth"),
			PeakDepth:   r.Gauge("memverify_search_peak_depth"),
		}
		r.GaugeFunc("memverify_search_solve_states", func() float64 { return float64(c.SolveStates()) })
		r.SetHelp("memverify_search_states_total", "Search states visited by every solver.")
		r.SetHelp("memverify_address_solves_begun_total",
			"Per-address solves begun (a whole-execution SC or TSO/PSO search counts one); memverifyd_solves_total counts fleet shards.")
		r.SetHelp("memverify_search_solve_states", "States charged to the most recently begun solve.")
		r.search = c
	})
	return r.search
}

// SearchFrom returns the search counters of the context's registry, or
// nil.
func SearchFrom(ctx context.Context) *SearchCounters {
	if o := From(ctx); o != nil {
		return o.Registry.Search()
	}
	return nil
}

// Flush adds a batch of counter deltas and records the current search
// depth. Nil-safe.
func (c *SearchCounters) Flush(states, memoHits, memoMisses, eagerReads, branches int64, depth int) {
	if c == nil {
		return
	}
	c.States.Add(states)
	c.MemoHits.Add(memoHits)
	c.MemoMisses.Add(memoMisses)
	c.EagerReads.Add(eagerReads)
	c.Branches.Add(branches)
	c.Depth.Set(int64(depth))
	peak := &c.PeakDepth.i.val
	for {
		p := peak.Load()
		if int64(depth) <= p || peak.CompareAndSwap(p, int64(depth)) {
			return
		}
	}
}

// SolveBegin marks the start of one solve. Nil-safe.
func (c *SearchCounters) SolveBegin() {
	if c == nil {
		return
	}
	c.SolvesBegun.Inc()
	c.solveBase.Store(c.States.Value())
}

// SolveEnd marks the end of one solve. Nil-safe.
func (c *SearchCounters) SolveEnd() {
	if c == nil {
		return
	}
	c.SolvesDone.Inc()
}

// SolveStates is the number of states charged to the most recently
// begun solve.
func (c *SearchCounters) SolveStates() int64 {
	return c.States.Value() - c.solveBase.Load()
}
