package consistency

import (
	"context"
	"encoding/binary"
	"time"

	"memverify/internal/memory"
	"memverify/internal/obs"
	"memverify/internal/solver"
)

// obsFlush remembers counter values at the last metrics flush so each
// flush adds only the delta; shared by the VSC and TSO searchers.
type obsFlush struct {
	states, memoHits, memoMisses, eagerReads, branches int
}

// obsFlushInterval matches the budget's context-poll amortization
// window: live metrics are pushed at most once per 64 states.
const obsFlushInterval = 64

// vscSearcher decides VSC by depth-first search over partial schedules.
// The state of a partial schedule is (position vector, per-address memory
// value): reads do not change memory, so two partial schedules with equal
// states have the same coherent completions. Visited failed states are
// memoized; with k histories and c addresses the state space is
// O(n^k · |D|^c), matching the O(n^k · k^c)-flavored constant-process
// bound cited in §5.1 from Gibbons & Korach.
type vscSearcher struct {
	exec   *memory.Execution
	opts   *Options
	budget *solver.Budget

	addrIndex map[memory.Addr]int
	pos       []int
	values    []memory.Value
	bound     []bool
	schedule  []memory.Ref

	// Optional write-order constraint (solver.WithWriteOrders): a
	// writing op is enabled only when it is the next entry of its
	// address's order. nextRank is derivable from pos, so the memo key
	// is unchanged.
	writeRank map[memory.Ref]int
	nextRank  []int

	memo   map[string]struct{}
	stats  solver.Stats
	abort  *solver.ErrBudgetExceeded
	keyBuf []byte

	// Observability handles, resolved once per solve from the context;
	// nil (and obsOn false) when no observer is attached, so the hot
	// path pays only nil comparisons.
	tr      *obs.Tracer
	sp      obs.Span
	met     *obs.Metrics
	obsOn   bool
	flushed obsFlush
}

// pollObs flushes counter deltas into the shared metrics and emits the
// budget-poll trace event.
func (s *vscSearcher) pollObs() {
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

// run drives the search and packages the result or the budget error. A
// panic anywhere in the search surfaces as *solver.ErrWorkerPanic rather
// than tearing down the caller (the searcher's per-solve state is
// abandoned, so no cleanup is needed beyond the recover).
func (s *vscSearcher) run(ctx context.Context, algorithm string) (res *Result, err error) {
	defer solver.RecoverToError(ctx, algorithm, &err)
	start := time.Now()
	s.budget = solver.Start(ctx, s.opts)
	defer s.budget.Stop()
	s.tr = obs.TracerFrom(ctx)
	s.met = obs.MetricsFrom(ctx)
	s.obsOn = s.tr != nil || s.met != nil
	s.met.SolveBegin()
	defer s.met.SolveEnd()
	if s.tr != nil {
		s.sp, _ = s.tr.Begin(ctx, algorithm)
	}
	found := s.dfs()
	s.stats.Duration = time.Since(start)
	if s.obsOn {
		s.pollObs()
	}
	if s.abort != nil {
		s.abort.Stats = s.stats
		s.sp.End("budget: "+s.abort.Reason.String(), int64(s.stats.States))
		return nil, s.abort
	}
	res = &Result{
		Consistent: found,
		Decided:    true,
		Algorithm:  algorithm,
		Stats:      s.stats,
	}
	if found {
		res.Schedule = append(memory.Schedule(nil), s.schedule...)
		s.sp.End("consistent", int64(s.stats.States))
	} else {
		s.sp.End("inconsistent", int64(s.stats.States))
	}
	return res, nil
}

// solveVSC decides Verifying Sequential Consistency (Definition 6.1): is
// there a schedule of all operations, all addresses, in which every read
// returns the value written by the immediately preceding write to the
// same address? The search is complete absent a budget; VSC is
// NP-Complete, so worst-case time is exponential.
func solveVSC(ctx context.Context, exec *memory.Execution, opts *Options) (*Result, error) {
	if err := exec.Validate(); err != nil {
		return nil, err
	}
	addrs := exec.Addresses()
	s := &vscSearcher{
		exec:      exec,
		opts:      opts,
		addrIndex: make(map[memory.Addr]int, len(addrs)),
		pos:       make([]int, len(exec.Histories)),
		values:    make([]memory.Value, len(addrs)),
		bound:     make([]bool, len(addrs)),
		memo:      make(map[string]struct{}),
	}
	for i, a := range addrs {
		s.addrIndex[a] = i
		if d, ok := exec.Initial[a]; ok {
			s.values[i], s.bound[i] = d, true
		}
	}
	return s.run(ctx, "vsc-search")
}

func (s *vscSearcher) key() string {
	buf := s.keyBuf[:0]
	for _, p := range s.pos {
		buf = binary.AppendUvarint(buf, uint64(p))
	}
	for i := range s.values {
		if s.bound[i] {
			buf = append(buf, 1)
			buf = binary.AppendVarint(buf, int64(s.values[i]))
		} else {
			buf = append(buf, 0)
		}
	}
	s.keyBuf = buf
	return string(buf)
}

func (s *vscSearcher) done() bool {
	for h, p := range s.pos {
		if p < len(s.exec.Histories[h]) {
			return false
		}
	}
	return true
}

// finalOK checks declared final values at completion: for addresses with
// writes, the current value is the last written value; binding reads only
// precede the first write of their address.
func (s *vscSearcher) finalOK() bool {
	for a, want := range s.exec.Final {
		i, ok := s.addrIndex[a]
		if !ok {
			continue // address never touched: unconstrained
		}
		if s.bound[i] && s.values[i] != want {
			return false
		}
	}
	return true
}

// enabled reports whether the next op of history h may be scheduled in
// the current state. Synchronization ops are always enabled (SC gives
// them no semantics beyond program order).
func (s *vscSearcher) enabled(h int, o memory.Op) bool {
	if !o.IsMemory() {
		return true
	}
	i := s.addrIndex[o.Addr]
	if _, w := o.Writes(); w && s.writeRank != nil {
		ref := memory.Ref{Proc: h, Index: s.pos[h]}
		if s.writeRank[ref] != s.nextRank[i] {
			return false
		}
	}
	switch o.Kind {
	case memory.Write:
		return true
	default: // Read, ReadModifyWrite
		return !s.bound[i] || o.Data == s.values[i]
	}
}

// isPassive reports whether scheduling o cannot change the search state:
// sync ops always, and reads whose address value is bound and matching.
// Passive enabled ops are scheduled eagerly — sound, because the state
// (and hence the set of coherent completions) is unchanged, and any
// schedule can be rearranged to place them at the first point they are
// enabled.
func (s *vscSearcher) isPassive(o memory.Op) bool {
	if !o.IsMemory() {
		return true
	}
	if o.Kind != memory.Read {
		return false
	}
	i := s.addrIndex[o.Addr]
	return s.bound[i] && o.Data == s.values[i]
}

func (s *vscSearcher) scheduleEager() int {
	if !s.opts.EagerReads() {
		return 0
	}
	n := 0
	for {
		progress := false
		for h := range s.exec.Histories {
			for s.pos[h] < len(s.exec.Histories[h]) {
				o := s.exec.Histories[h][s.pos[h]]
				if !s.isPassive(o) {
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

func (s *vscSearcher) undoEager(n int) {
	for i := 0; i < n; i++ {
		r := s.schedule[len(s.schedule)-1]
		s.schedule = s.schedule[:len(s.schedule)-1]
		s.pos[r.Proc]--
	}
}

// apply schedules the next op of history h, returning an undo closure.
func (s *vscSearcher) apply(h int) func() {
	o := s.exec.Histories[h][s.pos[h]]
	s.schedule = append(s.schedule, memory.Ref{Proc: h, Index: s.pos[h]})
	s.pos[h]++
	if !o.IsMemory() {
		return func() {
			s.pos[h]--
			s.schedule = s.schedule[:len(s.schedule)-1]
		}
	}
	i := s.addrIndex[o.Addr]
	prevV, prevB := s.values[i], s.bound[i]
	if d, ok := o.Reads(); ok && !s.bound[i] {
		s.values[i], s.bound[i] = d, true
	}
	wrote := false
	if d, ok := o.Writes(); ok {
		s.values[i], s.bound[i] = d, true
		if s.writeRank != nil {
			s.nextRank[i]++
			wrote = true
		}
	}
	return func() {
		s.pos[h]--
		s.schedule = s.schedule[:len(s.schedule)-1]
		s.values[i], s.bound[i] = prevV, prevB
		if wrote {
			s.nextRank[i]--
		}
	}
}

// candidates returns the branchable histories in history order.
func (s *vscSearcher) candidates() []int {
	var out []int
	for h := range s.exec.Histories {
		if s.pos[h] >= len(s.exec.Histories[h]) {
			continue
		}
		o := s.exec.Histories[h][s.pos[h]]
		if !s.enabled(h, o) {
			continue
		}
		if s.opts.EagerReads() && s.isPassive(o) {
			continue // consumed by the eager rule
		}
		out = append(out, h)
	}
	return out
}

func (s *vscSearcher) dfs() bool {
	eager := s.scheduleEager()
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
		s.undoEager(eager)
		return false
	}

	var key string
	if s.opts.Memoize() {
		key = s.key()
		if _, seen := s.memo[key]; seen {
			s.stats.MemoHits++
			if s.tr != nil {
				s.tr.MemoHit(s.sp, len(s.schedule))
			}
			s.undoEager(eager)
			return false
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
		s.undoEager(eager)
		return false
	}
	if s.obsOn && s.stats.States&(obsFlushInterval-1) == 0 {
		s.pollObs()
	}

	cands := s.candidates()
	s.stats.Branches += len(cands)
	for _, h := range cands {
		undo := s.apply(h)
		if s.dfs() {
			return true
		}
		undo()
		if s.abort != nil {
			s.undoEager(eager)
			return false
		}
	}

	if s.tr != nil {
		s.tr.Backtrack(s.sp, len(s.schedule))
	}
	if s.opts.Memoize() {
		s.memo[key] = struct{}{}
	}
	s.undoEager(eager)
	return false
}
