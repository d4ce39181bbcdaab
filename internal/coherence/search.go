package coherence

import (
	"context"
	"sync"

	"memverify/internal/memory"
	"memverify/internal/obs"
	"memverify/internal/solver"
)

// searcher is the exact-search kernel: a depth-first search over partial
// schedules of a compiled program. The state of a partial schedule is
// fully described by (position vector, value id per slot), because reads
// and synchronization operations do not change memory and a slot's value
// is the last written value (or the bound initial value). Failed states
// are memoized, which bounds the search by the number of distinct
// states, O(n^k · |D|^c) for k histories over c addresses — the paper's
// constant-process algorithm for VMC (c = 1) and Gibbons & Korach's for
// VSC. The eager rule schedules passive operations (sync ops, and reads
// that match their slot's bound value) at once, which shrinks the
// branching factor to the histories with an enabled write or binding
// read.
//
// The memo table is the hot path, so every state packs into a
// fixed-width key (program.layout) in one solver.MemoSet. All per-state
// buffers — position vector, value slots, schedule, candidate stack, one
// key per depth — come from a pooled searchScratch, so steady-state
// search does zero allocations per state.
type searcher struct {
	solver.Run // budget, clock and observers of a sequential solve

	pg   *program
	opts *Options

	pos      []int    // next unscheduled op per history
	val      []uint32 // value id per slot, 0 = unbound
	schedule []memory.Ref
	// keys holds one memo key per schedule depth: a frame packs its
	// state at keys[d*w:(d+1)*w], and deeper frames use deeper slots, so
	// the key is still there when the frame memoizes its failure.
	keys []uint64
	memo *solver.MemoSet // nil when memoization is off

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
}

// searchScratch is the pooled state of one exact search: the compiled
// program, the searcher with its per-state buffers and the memo table.
// Every search — Verify's per-address solves, SolveBatch's litmus-sized
// jobs, Diagnose's shrinking re-solves, SearchSC — takes one from
// scratchPool, so a worker draining many solves reuses one warm set
// instead of rebuilding it per address.
type searchScratch struct {
	pg   program
	s    searcher
	memo solver.MemoSet
}

var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// searchInstance runs the exact search on a projected instance. A
// tripped budget (state bound, deadline, or cancellation) returns a nil
// Result and the budget error carrying the partial stats.
func searchInstance(ctx context.Context, inst *instance, opts *Options) (*Result, *solver.ErrBudgetExceeded) {
	sc := scratchPool.Get().(*searchScratch)
	defer scratchPool.Put(sc)
	sc.pg.compileInstance(inst)
	return sc.search(ctx, opts)
}

// SearchSC decides Verifying Sequential Consistency (Definition 6.1) on
// the exact-search kernel: one value slot per address of exec (each
// address an operation touches or a final value names), and
// synchronization operations passive (SC gives them no semantics beyond
// program order). exec must be valid. orders, when non-nil, must hold
// every address's complete write order (the caller validates it): a
// write is then scheduled only after its predecessor in that order, the
// §5.2 augmentation applied to VSC (§6.3). Result.Coherent reports
// whether a sequentially consistent schedule exists, and the schedule
// covers every operation.
//
// name labels the solve's span, its Result.Algorithm (with or without
// solver.WithParallelSearch) and a panic, which is returned as a
// *solver.ErrWorkerPanic. A budget trip returns *solver.ErrBudgetExceeded
// with the partial Stats.
func SearchSC(ctx context.Context, exec *memory.Execution, orders map[memory.Addr][]memory.Ref, opts *Options, name string) (res *Result, err error) {
	defer solver.RecoverToError(ctx, name, &err)
	met := obs.SearchFrom(ctx)
	met.SolveBegin()
	defer met.SolveEnd()
	// An address no operation touches still has a slot when it declares
	// a final value: with a declared initial value that differs, no
	// schedule can end with the final one (memory.CheckSC agrees).
	addrs := exec.CheckedAddresses()
	init := make([]declared, len(addrs))
	final := make([]declared, len(addrs))
	for s, a := range addrs {
		init[s].v, init[s].ok = exec.Initial[a]
		final[s].v, final[s].ok = exec.Final[a]
	}
	sc := scratchPool.Get().(*searchScratch)
	defer scratchPool.Put(sc)
	sc.pg.compile(&instance{hist: exec.Histories, nops: exec.NumOps()}, addrs, init, final, orders)
	sc.pg.name = naming{seq: name, par: name, yes: "consistent", no: "inconsistent"}
	r, e := sc.search(ctx, opts)
	if e != nil {
		return nil, e
	}
	return r, nil
}

// search runs the kernel on the compiled program sc.pg: across a worker
// team when opts asks for one (solver.WithParallelSearch) and the search
// can share its memo — memoization on, no checkpoint sink (a mid-flight
// multi-worker memo is not resumable state), and an instance large
// enough to split — and sequentially otherwise. Every fallback is silent
// and complete: the sequential search answers the same question.
func (sc *searchScratch) search(ctx context.Context, opts *Options) (*Result, *solver.ErrBudgetExceeded) {
	pg := &sc.pg
	if w := opts.PSearch(); w > 1 && opts.Memoize() && opts.Sink() == nil && pg.nops >= psearchMinOps {
		return searchParallel(ctx, pg, opts, w)
	}
	s := &sc.s
	*s = s.fresh(pg)
	s.opts = opts
	s.Begin(ctx, opts)
	defer s.Budget.Stop()
	s.sink, s.snapEvery = opts.Sink(), opts.SnapshotEvery()
	if opts.Memoize() {
		// Size the table to the instance: litmus-sized solves touch tens
		// of states, not the 1024-slot default.
		s.memo = &sc.memo
		s.memo.Reset(pg.layout.Words(), 4*pg.nops)
		s.seedMemo(opts.ResumeMemoSeed())
	}
	s.Sp = pg.beginSpan(ctx, s.Tr, pg.name.seq)
	found := s.dfs()
	s.Stop(&s.stats, len(s.schedule))
	if s.abort != nil {
		if s.sink != nil {
			// Final snapshot at the abort point: this is what -checkpoint
			// round-trips, so a budget-killed search resumes here instead
			// of from scratch.
			s.snapshot()
		}
		s.End(s.stats, s.abort, "")
		return nil, s.abort
	}
	res := &Result{Coherent: found, Decided: true, Algorithm: pg.name.seq, Stats: s.stats}
	outcome := pg.name.no
	if found {
		res.Schedule = pg.inst.translate(s.schedule)
		outcome = pg.name.yes
	}
	s.End(s.stats, nil, outcome)
	return res, nil
}

// beginSpan opens the solve's span named name (a no-op without a
// tracer).
func (pg *program) beginSpan(ctx context.Context, tr *obs.Tracer, name string) obs.Span {
	if tr == nil {
		return obs.Span{}
	}
	var sp obs.Span
	if pg.name.perAddr {
		sp, _ = tr.BeginAddr(ctx, name, int64(pg.name.addr))
	} else {
		sp, _ = tr.Begin(ctx, name)
	}
	return sp
}

// fresh returns a searcher for pg built on s's grown buffers, at the
// root state: positions zeroed and value slots at their declared initial
// values. Every other field is left for the caller. A pooled searcher
// keeps its last solve's references until then; the pool drops it at
// the next collections anyway.
func (s *searcher) fresh(pg *program) searcher {
	pos := growSlice(s.pos, len(pg.hist))
	clear(pos)
	val := growSlice(s.val, len(pg.init))
	copy(val, pg.init)
	return searcher{pg: pg, pos: pos, val: val, schedule: s.schedule[:0], candBuf: s.candBuf[:0],
		keys: growSlice(s.keys, (pg.nops+1)*pg.layout.Words())}
}

// keep stores t's grown buffers in s for the next fresh, and drops every
// other reference t holds into its solve.
func (s *searcher) keep(t *searcher) {
	*s = searcher{pos: t.pos, val: t.val, schedule: t.schedule[:0], candBuf: t.candBuf[:0], keys: t.keys}
}

// growSlice returns s resized to n, reusing its backing array when the
// capacity allows.
func growSlice[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// keyAt returns the memo key slot of schedule depth d.
func (s *searcher) keyAt(d int) []uint64 {
	w := s.pg.layout.Words()
	return s.keys[d*w : (d+1)*w : (d+1)*w]
}

// pack writes the current state's memo key into key. A one-word key
// (every VMC instance of a paper figure but Figure 5.2) is built in a
// register.
func (s *searcher) pack(key []uint64) {
	l := &s.pg.layout
	nh := len(s.pos)
	if len(key) == 1 {
		var k uint64
		for h, p := range s.pos {
			k |= uint64(p) << l.Shift[h]
		}
		for i, v := range s.val {
			k |= uint64(v) << l.Shift[nh+i]
		}
		key[0] = k
		return
	}
	clear(key)
	for h, p := range s.pos {
		l.Put(key, h, uint64(p))
	}
	for i, v := range s.val {
		l.Put(key, nh+i, uint64(v))
	}
}

// seedMemo ingests memo keys saved by a prior checkpoint, in the string
// form snapshot writes, dropping entries that do not parse against this
// program — a drop only loses pruning, never soundness.
func (s *searcher) seedMemo(keys []string) {
	key := s.keyAt(0)
	for _, k := range keys {
		if s.pg.parseStringKey(k, key) {
			s.memo.Add(key)
		}
	}
}

// snapshot hands a copy of the resumable search state (memo table,
// current frontier, partial stats) to the checkpoint sink. Frontier refs
// are projection-local; they are informational — resume correctness
// rests on the memo table alone. Memo entries are rendered in the
// checkpoint string form.
func (s *searcher) snapshot() {
	snap := solver.SearchSnapshot{
		Frontier: append([]memory.Ref(nil), s.schedule...),
		Stats:    s.stats,
	}
	if s.memo != nil {
		snap.Memo = make([]string, 0, s.memo.Len())
		var buf []byte
		s.memo.Each(func(k []uint64) {
			buf = s.pg.appendStringKey(buf[:0], k)
			snap.Memo = append(snap.Memo, string(buf))
		})
	}
	s.lastSnap = s.stats.States
	if s.Tr != nil {
		s.Tr.Checkpoint(s.Sp, int64(s.stats.States), len(snap.Memo))
	}
	s.sink(snap)
}

// finalOK checks the declared final values at completion. A bound
// slot's value is the last written value whenever any write was
// scheduled (binding reads only occur before the first write); an
// unbound slot saw no writes, reads or declared initial value, so its
// final value is unconstrained.
func (s *searcher) finalOK() bool {
	for i, want := range s.pg.final {
		if v := s.val[i]; want != 0 && v != 0 && v != want {
			return false
		}
	}
	return true
}

// passive reports whether scheduling o now leaves the state unchanged:
// synchronization ops always, and reads whose slot is bound to the value
// they read.
func (s *searcher) passive(o *kop) bool {
	return o.wr == 0 && (o.rd == 0 || o.rd == s.val[o.slot])
}

// enabled reports whether the next op of history h may be scheduled now,
// ignoring the eager rule: a read or RMW needs its slot unbound or bound
// to the value it reads, and under write orders a write or RMW needs its
// predecessor in its address's order scheduled.
func (s *searcher) enabled(h int, o *kop) bool {
	if o.rd != 0 {
		if v := s.val[o.slot]; v != 0 && v != o.rd {
			return false
		}
	}
	if o.wr != 0 && s.pg.pred != nil {
		if p := s.pg.pred[h][s.pos[h]]; p.Proc >= 0 && s.pos[p.Proc] <= p.Index {
			return false
		}
	}
	return true
}

// apply schedules the op at hist[h][pos[h]], returning its slot's value
// to restore on undo. Returning a plain value instead of an undo closure
// keeps apply off the heap — the closure was one allocation per visited
// state.
func (s *searcher) apply(h int) (prev uint32) {
	o := &s.pg.hist[h][s.pos[h]]
	s.schedule = append(s.schedule, memory.Ref{Proc: h, Index: s.pos[h]})
	s.pos[h]++
	switch {
	case o.wr != 0:
		prev = s.val[o.slot]
		s.val[o.slot] = o.wr
	case o.rd != 0:
		prev = s.val[o.slot]
		if prev == 0 {
			s.val[o.slot] = o.rd
		}
	}
	return prev
}

// undo reverses the corresponding apply.
func (s *searcher) undo(h int, prev uint32) {
	s.pos[h]--
	s.schedule = s.schedule[:len(s.schedule)-1]
	if o := &s.pg.hist[h][s.pos[h]]; o.rd|o.wr != 0 {
		s.val[o.slot] = prev
	}
}

// scheduleEagerReads schedules every passive op at the head of a
// history, returning the number scheduled. Such ops never need to be
// delayed: they do not change the state, so a completion exists after
// scheduling them iff one existed before, and any schedule can be
// rearranged to place them at the first point they are enabled. One
// sweep finds them all: passivity depends only on the value slots, which
// scheduling a passive op leaves as they were.
func (s *searcher) scheduleEagerReads() int {
	if !s.opts.EagerReads() {
		return 0
	}
	n := 0
	for h, row := range s.pg.hist {
		for s.pos[h] < len(row) && s.passive(&row[s.pos[h]]) {
			s.schedule = append(s.schedule, memory.Ref{Proc: h, Index: s.pos[h]})
			s.pos[h]++
			n++
		}
	}
	s.stats.EagerReads += n
	return n
}

// undoEagerReads pops n eagerly scheduled ops.
func (s *searcher) undoEagerReads(n int) {
	for i := 0; i < n; i++ {
		r := s.schedule[len(s.schedule)-1]
		s.schedule = s.schedule[:len(s.schedule)-1]
		s.pos[r.Proc]--
	}
}

// appendCandidates appends to s.candBuf the histories whose next
// operation may be branched on now, in history order. The caller
// iterates s.candBuf[base:end] and truncates back to base.
func (s *searcher) appendCandidates() (base, end int) {
	base = len(s.candBuf)
	eager := s.opts.EagerReads()
	for h, row := range s.pg.hist {
		if s.pos[h] >= len(row) {
			continue
		}
		o := &row[s.pos[h]]
		if !s.enabled(h, o) || eager && s.passive(o) {
			// A passive op left here was consumed by the eager rule. (An
			// enabled read of an unbound slot is a genuine branch: it
			// binds the initial value.)
			continue
		}
		s.candBuf = append(s.candBuf, h)
	}
	return base, len(s.candBuf)
}

// dfs explores from the current state; true means a complete schedule
// was found (and s.schedule holds it).
func (s *searcher) dfs() bool {
	eager := s.scheduleEagerReads()
	if s.Tr != nil && eager > 0 {
		s.Tr.EagerReads(s.Sp, len(s.schedule), eager)
	}
	d := len(s.schedule)
	if d > s.stats.PeakDepth {
		s.stats.PeakDepth = d
	}
	if d == s.pg.nops {
		if s.finalOK() {
			return true
		}
		s.undoEagerReads(eager)
		return false
	}

	var key []uint64
	if s.memo != nil {
		key = s.keyAt(d)
		s.pack(key)
		if s.memo.Contains(key) {
			s.stats.MemoHits++
			if s.Tr != nil {
				s.Tr.MemoHit(s.Sp, d)
			}
			s.undoEagerReads(eager)
			return false
		}
		s.stats.MemoMisses++
		if s.Tr != nil {
			s.Tr.MemoMiss(s.Sp, d)
		}
	}

	s.stats.States++
	s.stats.RecordDepth(d)
	if s.Tr != nil {
		s.Tr.StateEnter(s.Sp, d, int64(s.stats.States))
	}
	if e := s.Budget.Charge(s.stats.States); e != nil {
		s.abort = e
		s.undoEagerReads(eager)
		return false
	}
	if s.stats.States&(solver.FlushInterval-1) == 0 {
		if s.On {
			s.Poll(&s.stats, d)
		}
		if s.snapEvery > 0 && s.stats.States-s.lastSnap >= s.snapEvery {
			s.snapshot()
		}
	}

	base, end := s.appendCandidates()
	s.stats.Branches += end - base
	for i := base; i < end; i++ {
		h := s.candBuf[i]
		prev := s.apply(h)
		if s.dfs() {
			return true
		}
		s.undo(h, prev)
		if s.abort != nil {
			s.candBuf = s.candBuf[:base]
			s.undoEagerReads(eager)
			return false
		}
	}
	s.candBuf = s.candBuf[:base]

	if s.Tr != nil {
		s.Tr.Backtrack(s.Sp, d)
	}
	if s.memo != nil {
		s.memo.Add(key)
	}
	s.undoEagerReads(eager)
	return false
}
