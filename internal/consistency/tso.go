package consistency

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"memverify/internal/memory"
	"memverify/internal/obs"
	"memverify/internal/solver"
)

// EventKind discriminates witness events of the operational verifiers.
type EventKind uint8

const (
	// EventIssue is a processor issuing its next operation (a write
	// enters the store buffer; a read takes its value from the buffer or
	// memory; an RMW or fence drains and acts on memory).
	EventIssue EventKind = iota
	// EventCommit is a store buffer entry draining to memory.
	EventCommit
)

// Event is one step of an operational machine run — together the events
// form the witness that the machine can reproduce the execution.
type Event struct {
	Kind EventKind
	// Ref identifies the issued operation (EventIssue) or the operation
	// whose buffered store commits (EventCommit).
	Ref memory.Ref
}

// String renders the event compactly.
func (e Event) String() string {
	if e.Kind == EventIssue {
		return fmt.Sprintf("issue %s", e.Ref)
	}
	return fmt.Sprintf("commit %s", e.Ref)
}

// bufferEntry is a pending store in a store buffer.
type bufferEntry struct {
	addr memory.Addr
	val  memory.Value
	ref  memory.Ref
}

// tsoSearcher explores the operational state space of a store-buffer
// machine. Two buffer disciplines are supported:
//
//	TSO: one FIFO buffer per processor; commits drain in issue order.
//	PSO: per-processor, per-address FIFO; commits to different
//	     addresses may drain in any order.
//
// Reads forward from the processor's own newest buffered store to the
// address, else read memory. Read-modify-writes, fences, acquires and
// releases require an empty (own) buffer and act on memory directly.
type tsoSearcher struct {
	exec   *memory.Execution
	opts   *Options
	budget *solver.Budget
	pso    bool

	addrIndex map[memory.Addr]int
	pos       []int
	buffers   [][]bufferEntry // per processor, issue order
	values    []memory.Value
	bound     []bool
	events    []Event

	memo   map[string]struct{}
	stats  solver.Stats
	abort  *solver.ErrBudgetExceeded
	keyBuf []byte

	// Observability handles (see vscSearcher).
	tr      *obs.Tracer
	sp      obs.Span
	met     *obs.Metrics
	obsOn   bool
	flushed obsFlush
}

// pollObs flushes counter deltas into the shared metrics and emits the
// budget-poll trace event.
func (s *tsoSearcher) pollObs() {
	if s.met != nil {
		s.met.Flush(
			int64(s.stats.States-s.flushed.states),
			int64(s.stats.MemoHits-s.flushed.memoHits),
			int64(s.stats.MemoMisses-s.flushed.memoMisses),
			0,
			int64(s.stats.Branches-s.flushed.branches),
			len(s.events))
		s.flushed = obsFlush{states: s.stats.States, memoHits: s.stats.MemoHits,
			memoMisses: s.stats.MemoMisses, branches: s.stats.Branches}
	}
	if s.tr != nil {
		s.tr.BudgetPoll(s.sp, int64(s.stats.States), len(s.events))
	}
}

// verifyTSO checks whether exec is explainable by a Total Store Order
// machine: per-processor FIFO store buffers with forwarding, writes
// committing to a single coherent memory in issue order. The witness
// issue/commit event trace is returned on success.
func verifyTSO(ctx context.Context, exec *memory.Execution, opts *Options) (*Result, error) {
	return verifyStoreBuffer(ctx, exec, opts, false)
}

// verifyPSO checks whether exec is explainable by a Partial Store Order
// machine: like TSO but stores to different addresses may commit out of
// issue order (per-address FIFOs).
func verifyPSO(ctx context.Context, exec *memory.Execution, opts *Options) (*Result, error) {
	return verifyStoreBuffer(ctx, exec, opts, true)
}

func verifyStoreBuffer(ctx context.Context, exec *memory.Execution, opts *Options, pso bool) (res *Result, err error) {
	// Operational-machine searches recover panics into typed errors like
	// the VSC searcher does, so a bug in one model's machine cannot crash
	// the process that runs it.
	label := "tso-machine"
	if pso {
		label = "pso-machine"
	}
	defer solver.RecoverToError(ctx, label, &err)
	if err := exec.Validate(); err != nil {
		return nil, err
	}
	addrs := exec.Addresses()
	s := &tsoSearcher{
		exec:      exec,
		opts:      opts,
		pso:       pso,
		addrIndex: make(map[memory.Addr]int, len(addrs)),
		pos:       make([]int, len(exec.Histories)),
		buffers:   make([][]bufferEntry, len(exec.Histories)),
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
	algorithm := "tso-operational"
	if pso {
		algorithm = "pso-operational"
	}
	start := time.Now()
	s.budget = solver.Start(ctx, opts)
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
		res.Events = append([]Event(nil), s.events...)
		s.sp.End("consistent", int64(s.stats.States))
	} else {
		s.sp.End("inconsistent", int64(s.stats.States))
	}
	return res, nil
}

func (s *tsoSearcher) key() string {
	buf := s.keyBuf[:0]
	for _, p := range s.pos {
		buf = binary.AppendUvarint(buf, uint64(p))
	}
	for _, b := range s.buffers {
		buf = binary.AppendUvarint(buf, uint64(len(b)))
		for _, e := range b {
			buf = binary.AppendVarint(buf, int64(e.addr))
			buf = binary.AppendVarint(buf, int64(e.val))
		}
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

func (s *tsoSearcher) done() bool {
	for h, p := range s.pos {
		if p < len(s.exec.Histories[h]) {
			return false
		}
	}
	for _, b := range s.buffers {
		if len(b) > 0 {
			return false
		}
	}
	return true
}

func (s *tsoSearcher) finalOK() bool {
	for a, want := range s.exec.Final {
		i, ok := s.addrIndex[a]
		if !ok {
			continue
		}
		if s.bound[i] && s.values[i] != want {
			return false
		}
	}
	return true
}

// forwarded returns the value the processor's own buffer supplies for
// addr (the newest pending store), if any.
func (s *tsoSearcher) forwarded(p int, addr memory.Addr) (memory.Value, bool) {
	b := s.buffers[p]
	for i := len(b) - 1; i >= 0; i-- {
		if b[i].addr == addr {
			return b[i].val, true
		}
	}
	return 0, false
}

// commitChoices lists buffer indices of processor p eligible to commit
// next: index 0 only under TSO; the oldest entry of each address under
// PSO.
func (s *tsoSearcher) commitChoices(p int) []int {
	b := s.buffers[p]
	if len(b) == 0 {
		return nil
	}
	if !s.pso {
		return []int{0}
	}
	var out []int
	seen := make(map[memory.Addr]bool)
	for i, e := range b {
		if !seen[e.addr] {
			seen[e.addr] = true
			out = append(out, i)
		}
	}
	return out
}

// tryIssue attempts to issue the next op of processor p. It returns an
// undo closure, or nil if the op is not issueable in this state.
func (s *tsoSearcher) tryIssue(p int) func() {
	h := s.exec.Histories[p]
	if s.pos[p] >= len(h) {
		return nil
	}
	o := h[s.pos[p]]
	ref := memory.Ref{Proc: p, Index: s.pos[p]}
	switch o.Kind {
	case memory.Write:
		s.buffers[p] = append(s.buffers[p], bufferEntry{addr: o.Addr, val: o.Data, ref: ref})
		s.pos[p]++
		s.events = append(s.events, Event{Kind: EventIssue, Ref: ref})
		return func() {
			s.events = s.events[:len(s.events)-1]
			s.pos[p]--
			s.buffers[p] = s.buffers[p][:len(s.buffers[p])-1]
		}
	case memory.Read:
		if v, ok := s.forwarded(p, o.Addr); ok {
			if v != o.Data {
				return nil
			}
			s.pos[p]++
			s.events = append(s.events, Event{Kind: EventIssue, Ref: ref})
			return func() {
				s.events = s.events[:len(s.events)-1]
				s.pos[p]--
			}
		}
		i := s.addrIndex[o.Addr]
		if s.bound[i] && s.values[i] != o.Data {
			return nil
		}
		prevV, prevB := s.values[i], s.bound[i]
		if !s.bound[i] {
			s.values[i], s.bound[i] = o.Data, true
		}
		s.pos[p]++
		s.events = append(s.events, Event{Kind: EventIssue, Ref: ref})
		return func() {
			s.events = s.events[:len(s.events)-1]
			s.pos[p]--
			s.values[i], s.bound[i] = prevV, prevB
		}
	case memory.ReadModifyWrite:
		// Atomic operations drain the buffer first (x86 LOCK semantics).
		if len(s.buffers[p]) > 0 {
			return nil
		}
		i := s.addrIndex[o.Addr]
		if s.bound[i] && s.values[i] != o.Data {
			return nil
		}
		prevV, prevB := s.values[i], s.bound[i]
		s.values[i], s.bound[i] = o.Store, true
		s.pos[p]++
		s.events = append(s.events, Event{Kind: EventIssue, Ref: ref})
		return func() {
			s.events = s.events[:len(s.events)-1]
			s.pos[p]--
			s.values[i], s.bound[i] = prevV, prevB
		}
	case memory.Fence, memory.Acquire, memory.Release:
		// Ordering operations require an empty buffer (conservative for
		// acquire/release; exact for a full fence).
		if len(s.buffers[p]) > 0 {
			return nil
		}
		s.pos[p]++
		s.events = append(s.events, Event{Kind: EventIssue, Ref: ref})
		return func() {
			s.events = s.events[:len(s.events)-1]
			s.pos[p]--
		}
	default:
		return nil
	}
}

// commit drains buffer entry idx of processor p to memory.
func (s *tsoSearcher) commit(p, idx int) func() {
	e := s.buffers[p][idx]
	i := s.addrIndex[e.addr]
	prevV, prevB := s.values[i], s.bound[i]
	s.values[i], s.bound[i] = e.val, true
	// Remove entry idx, preserving order.
	rest := append([]bufferEntry(nil), s.buffers[p][idx+1:]...)
	s.buffers[p] = append(s.buffers[p][:idx], rest...)
	s.events = append(s.events, Event{Kind: EventCommit, Ref: e.ref})
	return func() {
		s.events = s.events[:len(s.events)-1]
		b := s.buffers[p]
		b = append(b[:idx], append([]bufferEntry{e}, b[idx:]...)...)
		s.buffers[p] = b
		s.values[i], s.bound[i] = prevV, prevB
	}
}

func (s *tsoSearcher) dfs() bool {
	if d := len(s.events); d > s.stats.PeakDepth {
		s.stats.PeakDepth = d
	}
	if s.done() {
		return s.finalOK()
	}
	var key string
	if s.opts.Memoize() {
		key = s.key()
		if _, seen := s.memo[key]; seen {
			s.stats.MemoHits++
			if s.tr != nil {
				s.tr.MemoHit(s.sp, len(s.events))
			}
			return false
		}
		s.stats.MemoMisses++
		if s.tr != nil {
			s.tr.MemoMiss(s.sp, len(s.events))
		}
	}
	s.stats.States++
	s.stats.RecordDepth(len(s.events))
	if s.tr != nil {
		s.tr.StateEnter(s.sp, len(s.events), int64(s.stats.States))
	}
	if e := s.budget.Charge(s.stats.States); e != nil {
		s.abort = e
		return false
	}
	if s.obsOn && s.stats.States&(obsFlushInterval-1) == 0 {
		s.pollObs()
	}

	for p := range s.exec.Histories {
		if undo := s.tryIssue(p); undo != nil {
			s.stats.Branches++
			if s.dfs() {
				return true
			}
			undo()
			if s.abort != nil {
				return false
			}
		}
		for _, idx := range s.commitChoices(p) {
			s.stats.Branches++
			undo := s.commit(p, idx)
			if s.dfs() {
				return true
			}
			undo()
			if s.abort != nil {
				return false
			}
		}
	}

	if s.tr != nil {
		s.tr.Backtrack(s.sp, len(s.events))
	}
	if s.opts.Memoize() {
		s.memo[key] = struct{}{}
	}
	return false
}

// ReplayEvents validates a witness event trace against exec under the
// given buffer discipline, re-running the operational semantics
// deterministically. It is used to check the verifiers' witnesses.
func ReplayEvents(exec *memory.Execution, events []Event, pso bool) error {
	addrs := exec.Addresses()
	addrIndex := make(map[memory.Addr]int, len(addrs))
	values := make([]memory.Value, len(addrs))
	bound := make([]bool, len(addrs))
	for i, a := range addrs {
		addrIndex[a] = i
		if d, ok := exec.Initial[a]; ok {
			values[i], bound[i] = d, true
		}
	}
	pos := make([]int, len(exec.Histories))
	buffers := make([][]bufferEntry, len(exec.Histories))

	forwarded := func(p int, addr memory.Addr) (memory.Value, bool) {
		b := buffers[p]
		for i := len(b) - 1; i >= 0; i-- {
			if b[i].addr == addr {
				return b[i].val, true
			}
		}
		return 0, false
	}

	for ei, ev := range events {
		p := ev.Ref.Proc
		if p < 0 || p >= len(exec.Histories) {
			return fmt.Errorf("consistency: event %d: processor %d out of range", ei, p)
		}
		switch ev.Kind {
		case EventIssue:
			if ev.Ref.Index != pos[p] {
				return fmt.Errorf("consistency: event %d: issue out of program order", ei)
			}
			o := exec.Histories[p][pos[p]]
			switch o.Kind {
			case memory.Write:
				buffers[p] = append(buffers[p], bufferEntry{addr: o.Addr, val: o.Data, ref: ev.Ref})
			case memory.Read:
				if v, ok := forwarded(p, o.Addr); ok {
					if v != o.Data {
						return fmt.Errorf("consistency: event %d: forwarded value %d != read value %d", ei, v, o.Data)
					}
				} else {
					i := addrIndex[o.Addr]
					if bound[i] && values[i] != o.Data {
						return fmt.Errorf("consistency: event %d: memory value %d != read value %d", ei, values[i], o.Data)
					}
					if !bound[i] {
						values[i], bound[i] = o.Data, true
					}
				}
			case memory.ReadModifyWrite:
				if len(buffers[p]) > 0 {
					return fmt.Errorf("consistency: event %d: RMW issued with non-empty buffer", ei)
				}
				i := addrIndex[o.Addr]
				if bound[i] && values[i] != o.Data {
					return fmt.Errorf("consistency: event %d: RMW read %d but memory is %d", ei, o.Data, values[i])
				}
				values[i], bound[i] = o.Store, true
			default: // Fence, Acquire, Release
				if len(buffers[p]) > 0 {
					return fmt.Errorf("consistency: event %d: ordering op issued with non-empty buffer", ei)
				}
			}
			pos[p]++
		case EventCommit:
			b := buffers[p]
			found := -1
			for i, e := range b {
				if e.ref == ev.Ref {
					found = i
					break
				}
			}
			if found == -1 {
				return fmt.Errorf("consistency: event %d: commit of %s not in buffer", ei, ev.Ref)
			}
			if !pso && found != 0 {
				return fmt.Errorf("consistency: event %d: TSO commit out of FIFO order", ei)
			}
			if pso {
				for i := 0; i < found; i++ {
					if b[i].addr == b[found].addr {
						return fmt.Errorf("consistency: event %d: PSO commit out of per-address order", ei)
					}
				}
			}
			e := b[found]
			i := addrIndex[e.addr]
			values[i], bound[i] = e.val, true
			buffers[p] = append(b[:found], b[found+1:]...)
		default:
			return fmt.Errorf("consistency: event %d: unknown kind %d", ei, ev.Kind)
		}
	}
	for p, b := range buffers {
		if len(b) > 0 {
			return fmt.Errorf("consistency: processor %d buffer not drained", p)
		}
		if pos[p] != len(exec.Histories[p]) {
			return fmt.Errorf("consistency: processor %d issued %d of %d ops", p, pos[p], len(exec.Histories[p]))
		}
	}
	// Final values.
	final := make([]memory.Addr, 0, len(exec.Final))
	for a := range exec.Final {
		final = append(final, a)
	}
	sort.Slice(final, func(i, j int) bool { return final[i] < final[j] })
	for _, a := range final {
		i, ok := addrIndex[a]
		if !ok {
			continue
		}
		if bound[i] && values[i] != exec.Final[a] {
			return fmt.Errorf("consistency: final value of address %d is %d, want %d", a, values[i], exec.Final[a])
		}
	}
	return nil
}
