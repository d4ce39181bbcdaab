package consistency

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"memverify/internal/memory"
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
//
// Failed states are memoized in a solver.MemoSet under a fixed-width
// key: the position per processor, the committed-store count per
// processor (per processor and address under PSO) and the value id per
// address. A buffer holds exactly its processor's issued stores minus
// the committed prefix (per address under PSO), because it drains FIFO,
// so positions and commit counts fix every buffer's contents.
type tsoSearcher struct {
	solver.Run
	exec *memory.Execution
	opts *Options
	pso  bool

	addrIndex map[memory.Addr]int
	pos       []int
	buffers   [][]bufferEntry // per processor, issue order
	values    []memory.Value
	bound     []bool
	committed []int // per processor (TSO) or per processor × address (PSO)
	events    []Event

	layout solver.Layout    // positions, commit counts, value ids
	vals   [][]memory.Value // per address: its values, ascending (id = index+1)
	key    []uint64
	memo   *solver.MemoSet // nil when memoization is off
	stats  solver.Stats
	abort  *solver.ErrBudgetExceeded
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
	// the SC search does, so a bug in one model's machine cannot crash
	// the process that runs it.
	label := "tso-machine"
	if pso {
		label = "pso-machine"
	}
	defer solver.RecoverToError(ctx, label, &err)
	if err := exec.Validate(); err != nil {
		return nil, err
	}
	// An address no operation touches has a slot when it declares a
	// final value: finalOK holds it to its declared initial value.
	addrs := exec.CheckedAddresses()
	s := &tsoSearcher{
		exec:      exec,
		opts:      opts,
		pso:       pso,
		addrIndex: make(map[memory.Addr]int, len(addrs)),
		pos:       make([]int, len(exec.Histories)),
		buffers:   make([][]bufferEntry, len(exec.Histories)),
		values:    make([]memory.Value, len(addrs)),
		bound:     make([]bool, len(addrs)),
	}
	for i, a := range addrs {
		s.addrIndex[a] = i
		if d, ok := exec.Initial[a]; ok {
			s.values[i], s.bound[i] = d, true
		}
	}
	s.compileKey()
	if opts.Memoize() {
		s.memo = new(solver.MemoSet)
		s.memo.Reset(s.layout.Words(), 4*exec.NumOps())
	}
	algorithm := "tso-operational"
	if pso {
		algorithm = "pso-operational"
	}
	s.Begin(ctx, opts)
	defer s.Budget.Stop()
	s.Met.SolveBegin()
	defer s.Met.SolveEnd()
	if s.Tr != nil {
		s.Sp, _ = s.Tr.Begin(ctx, algorithm)
	}
	found := s.dfs()
	s.Stop(&s.stats, len(s.events))
	if s.abort != nil {
		s.End(s.stats, s.abort, "")
		return nil, s.abort
	}
	res = &Result{
		Consistent: found,
		Decided:    true,
		Algorithm:  algorithm,
		Stats:      s.stats,
	}
	outcome := "inconsistent"
	if found {
		res.Events = append([]Event(nil), s.events...)
		outcome = "consistent"
	}
	s.End(s.stats, nil, outcome)
	return res, nil
}

// compileKey numbers each address's values and lays out the memo key:
// one field per processor position, one per commit counter (wide enough
// for the stores it counts), one per address's value id.
func (s *tsoSearcher) compileKey() {
	naddr := len(s.values)
	s.vals = make([][]memory.Value, naddr)
	for i := range s.values {
		if s.bound[i] {
			s.vals[i] = append(s.vals[i], s.values[i])
		}
	}
	ncommit := len(s.exec.Histories)
	if s.pso {
		ncommit *= naddr
	}
	stores := make([]int, ncommit)
	for p, h := range s.exec.Histories {
		for _, o := range h {
			if !o.IsMemory() {
				continue
			}
			i := s.addrIndex[o.Addr]
			if d, ok := o.Reads(); ok {
				s.vals[i] = append(s.vals[i], d)
			}
			if d, ok := o.Writes(); ok {
				s.vals[i] = append(s.vals[i], d)
			}
			if o.Kind == memory.Write {
				stores[s.commitIndex(p, i)]++
			}
		}
	}
	for i := range s.vals {
		slices.Sort(s.vals[i])
		s.vals[i] = slices.Compact(s.vals[i])
	}
	s.committed = make([]int, ncommit)
	s.layout.Reset()
	for _, h := range s.exec.Histories {
		s.layout.Add(bits.Len(uint(len(h))))
	}
	for _, n := range stores {
		s.layout.Add(bits.Len(uint(n)))
	}
	for _, vs := range s.vals {
		s.layout.Add(bits.Len(uint(len(vs))))
	}
	s.key = make([]uint64, s.layout.Words())
}

// commitIndex is the commit counter of processor p's stores to address
// slot i.
func (s *tsoSearcher) commitIndex(p, i int) int {
	if s.pso {
		return p*len(s.values) + i
	}
	return p
}

// pack writes the current state's memo key into s.key.
func (s *tsoSearcher) pack() []uint64 {
	clear(s.key)
	f := 0
	for _, p := range s.pos {
		s.layout.Put(s.key, f, uint64(p))
		f++
	}
	for _, n := range s.committed {
		s.layout.Put(s.key, f, uint64(n))
		f++
	}
	for i, vs := range s.vals {
		if s.bound[i] {
			id, _ := slices.BinarySearch(vs, s.values[i])
			s.layout.Put(s.key, f, uint64(id+1))
		}
		f++
	}
	return s.key
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
		if i := s.addrIndex[a]; s.bound[i] && s.values[i] != want {
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
	c := s.commitIndex(p, i)
	s.committed[c]++
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
		s.committed[c]--
	}
}

func (s *tsoSearcher) dfs() bool {
	d := len(s.events)
	if d > s.stats.PeakDepth {
		s.stats.PeakDepth = d
	}
	if s.done() {
		return s.finalOK()
	}
	var key []uint64
	if s.memo != nil {
		key = s.pack()
		if s.memo.Contains(key) {
			s.stats.MemoHits++
			if s.Tr != nil {
				s.Tr.MemoHit(s.Sp, d)
			}
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
		return false
	}
	if s.On && s.stats.States&(solver.FlushInterval-1) == 0 {
		s.Poll(&s.stats, d)
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

	if s.Tr != nil {
		s.Tr.Backtrack(s.Sp, d)
	}
	if s.memo != nil {
		// The children overwrote the shared key buffer; the state is
		// restored, so re-pack it.
		s.memo.Add(s.pack())
	}
	return false
}

// ReplayEvents validates a witness event trace against exec under the
// given buffer discipline, re-running the operational semantics
// deterministically. It is used to check the verifiers' witnesses.
func ReplayEvents(exec *memory.Execution, events []Event, pso bool) error {
	addrs := exec.CheckedAddresses()
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
		if i := addrIndex[a]; bound[i] && values[i] != exec.Final[a] {
			return fmt.Errorf("consistency: final value of address %d is %d, want %d", a, values[i], exec.Final[a])
		}
	}
	return nil
}
