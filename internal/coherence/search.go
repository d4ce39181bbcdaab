package coherence

import (
	"context"
	"encoding/binary"
	"sync"
	"time"

	"memverify/internal/memory"
	"memverify/internal/obs"
	"memverify/internal/solver"
)

// searcher is the general VMC decision procedure: a depth-first search
// over partial schedules. The state of a partial schedule is fully
// described by (position vector, current value), because reads do not
// change the memory state and the current value is the last written value
// (or the bound initial value). Failed states are memoized, which bounds
// the search by the number of distinct states, O(n^k · |D|) — the paper's
// constant-process algorithm. The eager-read rule (schedule an enabled
// read immediately when it matches the current value) shrinks the
// branching factor to the number of histories with an enabled write.
//
// The memo table is the hot path (the search does O(1) work per state
// beyond it), so states are packed into a single uint64 and memoized in
// an open-addressing set whenever the instance fits the packed layout
// (see packed.go); only overflow instances pay for varint-string keys
// and a Go map. All per-state buffers — position vector, schedule,
// candidate stack — come from a pooled searchScratch, so steady-state
// search does zero allocations per state.
type searcher struct {
	inst   *instance
	opts   *Options
	budget *solver.Budget

	pos      []int // next unscheduled op per history
	cur      memory.Value
	bound    bool
	schedule []memory.Ref // projection refs, in scheduled order

	// Exactly one memo representation is active per solve: packed when
	// the instance fits the uint64 layout (layout non-nil), otherwise the
	// string-key map. Both memoize the same states; checkpoints always
	// serialize the string form, so the representations interconvert.
	layout *packedLayout
	packed *packedSet
	memo   map[string]struct{}

	// candBuf is a shared stack of candidate history indices: each dfs
	// frame appends its candidates, iterates them by index, and truncates
	// back on exit. One growable buffer replaces a per-state slice.
	candBuf []int

	stats solver.Stats
	abort *solver.ErrBudgetExceeded

	// Checkpoint hooks (see solver.Options.CheckpointSink): sink is nil
	// when checkpointing is off, so the hot loop pays one nil/zero test
	// at the existing every-64-states poll point and nothing else.
	sink      func(solver.SearchSnapshot)
	snapEvery int
	lastSnap  int

	// Observability handles, resolved once per solve from the context.
	// tr and met are nil when no observer is attached; obsOn gates the
	// every-64-states flush so the disabled hot path pays only nil
	// comparisons (see obs package doc and BenchmarkObsOverhead).
	tr      *obs.Tracer
	sp      obs.Span
	met     *obs.Metrics
	obsOn   bool
	flushed obsFlush

	keyBuf []byte // fallback string-key scratch; unused on the packed path
}

// searchScratch is the pooled state of one exact search: the searcher
// with its per-state buffers, the packed layout, the memo table and the
// budget. Every search — Verify's per-address solves, SolveBatch's
// litmus-sized jobs, Diagnose's shrinking re-solves — takes one from
// scratchPool, so a worker draining many solves reuses one warm set
// instead of rebuilding it per address.
type searchScratch struct {
	s      searcher
	layout packedLayout
	packed packedSet
	budget solver.Budget
}

var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// obsFlush remembers the counter values at the last metrics flush, so
// each flush adds only the delta since the previous one.
type obsFlush struct {
	states, memoHits, memoMisses, eagerReads, branches int
}

// obsFlushInterval matches the budget's context-poll amortization
// window: live metrics are pushed at most once per 64 states.
const obsFlushInterval = 64

// pollObs flushes counter deltas into the shared metrics and emits the
// budget-poll trace event. Called every obsFlushInterval states and once
// at the end of the solve.
func (s *searcher) pollObs() {
	if s.met != nil {
		s.met.Flush(
			int64(s.stats.States-s.flushed.states),
			int64(s.stats.MemoHits-s.flushed.memoHits),
			int64(s.stats.MemoMisses-s.flushed.memoMisses),
			int64(s.stats.EagerReads-s.flushed.eagerReads),
			int64(s.stats.Branches-s.flushed.branches),
			len(s.schedule))
		s.flushed = obsFlush{s.stats.States, s.stats.MemoHits,
			s.stats.MemoMisses, s.stats.EagerReads, s.stats.Branches}
	}
	if s.tr != nil {
		s.tr.BudgetPoll(s.sp, int64(s.stats.States), len(s.schedule))
	}
}

// searchInstance runs the general search on a projected instance. A
// tripped budget (state bound, deadline, or cancellation) returns a nil
// Result and the budget error carrying the partial stats.
func searchInstance(ctx context.Context, inst *instance, opts *Options) (*Result, *solver.ErrBudgetExceeded) {
	sc := scratchPool.Get().(*searchScratch)
	defer scratchPool.Put(sc)
	var layout *packedLayout
	if opts.Memoize() && opts.PackedMemo() && sc.layout.build(inst) {
		layout = &sc.layout
	}
	// Parallel exact search (Options.ParallelSearch): engaged when the
	// memo can be shared (packed layout with a spare claim bit,
	// memoization on) and nothing demands sequential execution — a
	// checkpoint sink does, because a mid-flight multi-worker memo is
	// not resumable state (see psearch.go). Every fallback is silent
	// and complete: the sequential search answers the same question.
	if w := opts.PSearch(); w > 1 && layout != nil && layout.bitsUsed() < packedLayoutBits &&
		opts.Sink() == nil && inst.nops >= psearchMinOps {
		return searchInstanceParallel(ctx, inst, opts, layout, w)
	}
	start := time.Now()
	sc.budget.Reset(ctx, opts)
	defer sc.budget.Stop()
	s := &sc.s
	*s = s.fresh(inst)
	s.opts, s.budget = opts, &sc.budget
	s.tr, s.met = obs.TracerFrom(ctx), obs.MetricsFrom(ctx)
	s.sink, s.snapEvery = opts.Sink(), opts.SnapshotEvery()
	if opts.Memoize() {
		if layout != nil {
			s.layout, s.packed = layout, &sc.packed
			// Size the table to the instance: litmus-sized solves touch
			// tens of states, not the 1024-slot default.
			s.packed.resetSized(4 * inst.nops)
		} else {
			s.memo = make(map[string]struct{})
		}
	}
	s.obsOn = s.tr != nil || s.met != nil
	s.seedMemo(opts.ResumeMemoSeed())
	if s.tr != nil {
		s.sp, _ = s.tr.BeginAddr(ctx, "general-search", int64(inst.addr))
	}
	if inst.init != nil {
		s.cur, s.bound = *inst.init, true
	}
	found := s.dfs()
	s.stats.Duration = time.Since(start)
	if s.obsOn {
		s.pollObs()
	}
	if s.abort != nil {
		s.abort.Stats = s.stats
		if s.sink != nil {
			// Final snapshot at the abort point: this is what -checkpoint
			// round-trips, so a budget-killed search resumes here instead
			// of from scratch.
			s.snapshot()
		}
		s.sp.End("budget: "+s.abort.Reason.String(), int64(s.stats.States))
		return nil, s.abort
	}
	res := &Result{
		Coherent:  found,
		Decided:   true,
		Algorithm: "general-search",
		Stats:     s.stats,
	}
	if found {
		res.Schedule = inst.translate(s.schedule)
		s.sp.End("coherent", int64(s.stats.States))
	} else {
		s.sp.End("incoherent", int64(s.stats.States))
	}
	return res, nil
}

// fresh returns a searcher for inst built on s's grown buffers, its
// position vector zeroed; every other field is left for the caller. A
// pooled searcher keeps its last solve's references until then; the
// pool drops it at the next collections anyway.
func (s *searcher) fresh(inst *instance) searcher {
	pos := growSlice(s.pos, len(inst.hist))
	clear(pos)
	return searcher{inst: inst, pos: pos, schedule: s.schedule[:0],
		candBuf: s.candBuf[:0], keyBuf: s.keyBuf[:0]}
}

// keep stores t's grown buffers in s for the next fresh, and drops every
// other reference t holds into its solve.
func (s *searcher) keep(t *searcher) {
	*s = searcher{pos: t.pos, schedule: t.schedule[:0], candBuf: t.candBuf[:0],
		keyBuf: t.keyBuf[:0]}
}

// growSlice returns s resized to n, reusing its backing array when the
// capacity allows.
func growSlice[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// seedMemo ingests memo keys saved by a prior checkpoint. Keys are
// always the varint string form (what snapshot writes, on either memo
// path); the packed search re-packs each, dropping entries that do not
// fit the layout — a drop only loses pruning, never soundness.
func (s *searcher) seedMemo(keys []string) {
	switch {
	case s.packed != nil:
		for _, k := range keys {
			if pk, ok := s.layout.parseStringKey(k); ok {
				s.packed.add(pk)
			}
		}
	case s.memo != nil:
		for _, k := range keys {
			s.memo[k] = struct{}{}
		}
	}
}

// memoLen returns the number of memoized states on whichever memo path
// is active.
func (s *searcher) memoLen() int {
	if s.packed != nil {
		return s.packed.size()
	}
	return len(s.memo)
}

// snapshot hands a copy of the resumable search state (memo table,
// current frontier, partial stats) to the checkpoint sink. Frontier refs
// are projection-local; they are informational — resume correctness
// rests on the memo table alone. Packed memo entries are decoded to the
// string key form, so checkpoints have one format regardless of which
// memo path produced them.
func (s *searcher) snapshot() {
	snap := solver.SearchSnapshot{
		Memo:     make([]string, 0, s.memoLen()),
		Frontier: append([]memory.Ref(nil), s.schedule...),
		Stats:    s.stats,
	}
	if s.packed != nil {
		var buf []byte
		s.packed.each(func(k uint64) {
			buf = s.layout.appendStringKey(buf[:0], k)
			snap.Memo = append(snap.Memo, string(buf))
		})
	} else {
		for k := range s.memo {
			snap.Memo = append(snap.Memo, k)
		}
	}
	s.lastSnap = s.stats.States
	if s.tr != nil {
		s.tr.Checkpoint(s.sp, int64(s.stats.States), len(snap.Memo))
	}
	s.sink(snap)
}

// key serializes the current state for memoization (string fallback for
// instances that overflow the packed layout).
func (s *searcher) key() string {
	buf := s.keyBuf[:0]
	for _, p := range s.pos {
		buf = binary.AppendUvarint(buf, uint64(p))
	}
	if s.bound {
		buf = append(buf, 1)
		buf = binary.AppendVarint(buf, int64(s.cur))
	} else {
		buf = append(buf, 0)
	}
	s.keyBuf = buf
	return string(buf)
}

// done reports whether every operation has been scheduled.
func (s *searcher) done() bool {
	for i, p := range s.pos {
		if p < len(s.inst.hist[i]) {
			return false
		}
	}
	return true
}

// finalOK checks the final-value constraint at completion. The current
// value equals the last written value whenever any write was scheduled
// (binding reads only occur before the first write).
func (s *searcher) finalOK() bool {
	if s.inst.final == nil {
		return true
	}
	if !s.bound {
		// No writes, no reads, no declared initial value: vacuous.
		return true
	}
	return s.cur == *s.inst.final
}

// apply schedules the op at hist[h][pos[h]], returning the value state
// to restore on undo. Returning plain values instead of an undo closure
// keeps apply off the heap — the closure was one allocation per visited
// state.
func (s *searcher) apply(h int) (prevCur memory.Value, prevBound bool) {
	o := s.inst.hist[h][s.pos[h]]
	prevCur, prevBound = s.cur, s.bound
	s.schedule = append(s.schedule, memory.Ref{Proc: h, Index: s.pos[h]})
	s.pos[h]++
	if d, ok := o.Reads(); ok && !s.bound {
		s.cur, s.bound = d, true
	}
	if d, ok := o.Writes(); ok {
		s.cur, s.bound = d, true
	}
	return prevCur, prevBound
}

// undo reverses the corresponding apply.
func (s *searcher) undo(h int, prevCur memory.Value, prevBound bool) {
	s.pos[h]--
	s.schedule = s.schedule[:len(s.schedule)-1]
	s.cur, s.bound = prevCur, prevBound
}

// scheduleEagerReads repeatedly schedules every enabled read whose value
// matches the current bound value, returning the number scheduled. Such
// reads never need to be delayed: they do not change the state, so a
// coherent completion exists after scheduling them iff one existed
// before.
func (s *searcher) scheduleEagerReads() int {
	if !s.opts.EagerReads() || !s.bound {
		return 0
	}
	n := 0
	for {
		progress := false
		for h := range s.inst.hist {
			for s.pos[h] < len(s.inst.hist[h]) {
				o := s.inst.hist[h][s.pos[h]]
				if o.Kind != memory.Read || o.Data != s.cur {
					break
				}
				s.schedule = append(s.schedule, memory.Ref{Proc: h, Index: s.pos[h]})
				s.pos[h]++
				n++
				s.stats.EagerReads++
				progress = true
			}
		}
		if !progress {
			return n
		}
	}
}

// undoEagerReads pops n eagerly scheduled reads.
func (s *searcher) undoEagerReads(n int) {
	for i := 0; i < n; i++ {
		r := s.schedule[len(s.schedule)-1]
		s.schedule = s.schedule[:len(s.schedule)-1]
		s.pos[r.Proc]--
	}
}

// enabled reports whether the next op of history h may be scheduled now,
// ignoring the eager-read rule.
func (s *searcher) enabled(o memory.Op) bool {
	switch o.Kind {
	case memory.Write:
		return true
	case memory.Read, memory.ReadModifyWrite:
		return !s.bound || o.Data == s.cur
	default:
		// Synchronization ops never appear in projected instances.
		return false
	}
}

// appendCandidates appends to s.candBuf the histories whose next
// operation may be branched on now, in history order. The caller
// iterates s.candBuf[base:end] and truncates back to base.
func (s *searcher) appendCandidates() (base, end int) {
	base = len(s.candBuf)
	for h := range s.inst.hist {
		if s.pos[h] >= len(s.inst.hist[h]) {
			continue
		}
		o := s.inst.hist[h][s.pos[h]]
		if !s.enabled(o) {
			continue
		}
		if s.opts.EagerReads() && o.Kind == memory.Read && s.bound {
			// Matching reads were consumed by the eager rule; a read that
			// remains here mismatches and is disabled. (When unbound, a
			// read is a genuine branch: it binds the initial value.)
			continue
		}
		s.candBuf = append(s.candBuf, h)
	}
	return base, len(s.candBuf)
}

// dfs explores from the current state; true means a coherent completion
// was found (and s.schedule holds it).
func (s *searcher) dfs() bool {
	eager := s.scheduleEagerReads()
	if s.tr != nil && eager > 0 {
		s.tr.EagerReads(s.sp, len(s.schedule), eager)
	}
	if d := len(s.schedule); d > s.stats.PeakDepth {
		s.stats.PeakDepth = d
	}
	if s.done() {
		if s.finalOK() {
			return true
		}
		s.undoEagerReads(eager)
		return false
	}

	var key string
	var pkey uint64
	if s.opts.Memoize() {
		if s.packed != nil {
			pkey = s.layout.pack(s.pos, s.cur, s.bound)
			if s.packed.contains(pkey) {
				s.memoHit(eager)
				return false
			}
		} else {
			key = s.key()
			if _, seen := s.memo[key]; seen {
				s.memoHit(eager)
				return false
			}
		}
		s.stats.MemoMisses++
		if s.tr != nil {
			s.tr.MemoMiss(s.sp, len(s.schedule))
		}
	}

	s.stats.States++
	s.stats.RecordDepth(len(s.schedule))
	if s.tr != nil {
		s.tr.StateEnter(s.sp, len(s.schedule), int64(s.stats.States))
	}
	if e := s.budget.Charge(s.stats.States); e != nil {
		s.abort = e
		s.undoEagerReads(eager)
		return false
	}
	if s.stats.States&(obsFlushInterval-1) == 0 {
		if s.obsOn {
			s.pollObs()
		}
		if s.snapEvery > 0 && s.stats.States-s.lastSnap >= s.snapEvery {
			s.snapshot()
		}
	}

	base, end := s.appendCandidates()
	s.stats.Branches += end - base
	for i := base; i < end; i++ {
		h := s.candBuf[i]
		prevCur, prevBound := s.apply(h)
		if s.dfs() {
			return true
		}
		s.undo(h, prevCur, prevBound)
		if s.abort != nil {
			s.candBuf = s.candBuf[:base]
			s.undoEagerReads(eager)
			return false
		}
	}
	s.candBuf = s.candBuf[:base]

	if s.tr != nil {
		s.tr.Backtrack(s.sp, len(s.schedule))
	}
	if s.opts.Memoize() {
		if s.packed != nil {
			s.packed.add(pkey)
		} else {
			s.memo[key] = struct{}{}
		}
	}
	s.undoEagerReads(eager)
	return false
}

// memoHit records a memo-table prune and unwinds the frame's eager
// reads.
func (s *searcher) memoHit(eager int) {
	s.stats.MemoHits++
	if s.tr != nil {
		s.tr.MemoHit(s.sp, len(s.schedule))
	}
	s.undoEagerReads(eager)
}
