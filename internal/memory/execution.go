package memory

import (
	"fmt"
	"sort"
)

// History is the sequence of operations executed by one process, in
// program order. The paper writes histories vertically; here index 0 is
// the first operation in program order.
type History []Op

// Execution is the observed result of running a multiprocessor program:
// one history per process, plus optional knowledge of the initial and
// final contents of memory.
//
// Initial[a] is the paper's d_I[a]: if present, reads of address a that
// are scheduled before any write to a must return it. If absent, the
// initial value of a is unconstrained (the first pre-write read binds it).
//
// Final[a] is the paper's d_F[a]: if present, the last write to a in a
// coherent (or sequentially consistent) schedule must write it.
type Execution struct {
	Histories []History
	Initial   map[Addr]Value
	Final     map[Addr]Value
}

// NewExecution builds an execution from histories with unconstrained
// initial and final memory contents.
func NewExecution(histories ...History) *Execution {
	return &Execution{Histories: histories}
}

// SetInitial records the initial value of address a.
func (e *Execution) SetInitial(a Addr, d Value) *Execution {
	if e.Initial == nil {
		e.Initial = make(map[Addr]Value)
	}
	e.Initial[a] = d
	return e
}

// SetFinal records the final value of address a.
func (e *Execution) SetFinal(a Addr, d Value) *Execution {
	if e.Final == nil {
		e.Final = make(map[Addr]Value)
	}
	e.Final[a] = d
	return e
}

// NumProcesses returns the number of process histories.
func (e *Execution) NumProcesses() int { return len(e.Histories) }

// NumOps returns the total number of operations across all histories.
func (e *Execution) NumOps() int {
	n := 0
	for _, h := range e.Histories {
		n += len(h)
	}
	return n
}

// NumMemoryOps returns the number of data-memory operations (reads,
// writes, read-modify-writes), excluding synchronization operations.
func (e *Execution) NumMemoryOps() int {
	n := 0
	for _, h := range e.Histories {
		for _, o := range h {
			if o.IsMemory() {
				n++
			}
		}
	}
	return n
}

// Ref identifies one operation inside an execution: the operation at
// Histories[Proc][Index].
type Ref struct {
	Proc  int
	Index int
}

// String renders the reference as "P2[5]".
func (r Ref) String() string { return fmt.Sprintf("P%d[%d]", r.Proc, r.Index) }

// Op returns the operation identified by ref. It panics if ref is out of
// range; use Validate to check an untrusted execution first.
func (e *Execution) Op(r Ref) Op { return e.Histories[r.Proc][r.Index] }

// Addresses returns the sorted set of addresses touched by data-memory
// operations in the execution.
func (e *Execution) Addresses() []Addr {
	seen := make(map[Addr]bool)
	for _, h := range e.Histories {
		for _, o := range h {
			if o.IsMemory() {
				seen[o.Addr] = true
			}
		}
	}
	out := make([]Addr, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Refs returns every operation reference in the execution, grouped by
// process and in program order within each process.
func (e *Execution) Refs() []Ref {
	out := make([]Ref, 0, e.NumOps())
	for p, h := range e.Histories {
		for i := range h {
			out = append(out, Ref{Proc: p, Index: i})
		}
	}
	return out
}

// Validate reports an error if any operation is malformed.
func (e *Execution) Validate() error {
	for p, h := range e.Histories {
		for i, o := range h {
			if err := o.Validate(); err != nil {
				return fmt.Errorf("memory: P%d[%d]: %w", p, i, err)
			}
		}
	}
	return nil
}

// Project extracts the single-address sub-execution for address a: each
// history keeps only its data-memory operations to a, preserving program
// order. The returned back-mapping translates projection refs to refs of
// e: back[p][i] is the original ref of operation i of projected history
// p, so each back[p] is sorted by Index. Synchronization operations are
// dropped; they carry no data and the coherence problem (Definition 4.1)
// is stated over reads and writes of one address.
//
// A counting pass sizes every projected history, so the projection and
// its back-mapping live in two flat arrays of exactly the projected size.
func (e *Execution) Project(a Addr) (*Execution, [][]Ref) {
	proj := &Execution{Histories: make([]History, len(e.Histories))}
	back := make([][]Ref, len(e.Histories))
	if d, ok := e.Initial[a]; ok {
		proj.SetInitial(a, d)
	}
	if d, ok := e.Final[a]; ok {
		proj.SetFinal(a, d)
	}
	counts := make([]int, len(e.Histories))
	total := 0
	for p, h := range e.Histories {
		for _, o := range h {
			if o.IsMemory() && o.Addr == a {
				counts[p]++
			}
		}
		total += counts[p]
	}
	ops := make([]Op, 0, total)
	refs := make([]Ref, 0, total)
	for p, h := range e.Histories {
		if counts[p] == 0 {
			continue
		}
		start := len(ops)
		for i, o := range h {
			if o.IsMemory() && o.Addr == a {
				ops = append(ops, o)
				refs = append(refs, Ref{Proc: p, Index: i})
			}
		}
		proj.Histories[p] = ops[start:len(ops):len(ops)]
		back[p] = refs[start:len(refs):len(refs)]
	}
	return proj, back
}

// WritesPerValue counts, for address a, how many write operations (simple
// writes and the write component of read-modify-writes) store each value.
// It is used to validate the restricted-case constructions of Section 5
// ("values written at most twice/three times").
func (e *Execution) WritesPerValue(a Addr) map[Value]int {
	counts := make(map[Value]int)
	for _, h := range e.Histories {
		for _, o := range h {
			if !o.IsMemory() || o.Addr != a {
				continue
			}
			if d, ok := o.Writes(); ok {
				counts[d]++
			}
		}
	}
	return counts
}

// MaxOpsPerProcess returns the length of the longest history, counting
// only data-memory operations. Used to validate the restricted-case
// constructions of Section 5 ("three memory operations per process").
func (e *Execution) MaxOpsPerProcess() int {
	max := 0
	for _, h := range e.Histories {
		n := 0
		for _, o := range h {
			if o.IsMemory() {
				n++
			}
		}
		if n > max {
			max = n
		}
	}
	return max
}

// Clone returns a deep copy of the execution.
func (e *Execution) Clone() *Execution {
	out := &Execution{}
	out.Histories = make([]History, len(e.Histories))
	for i, h := range e.Histories {
		out.Histories[i] = append(History(nil), h...)
	}
	if e.Initial != nil {
		out.Initial = make(map[Addr]Value, len(e.Initial))
		for a, d := range e.Initial {
			out.Initial[a] = d
		}
	}
	if e.Final != nil {
		out.Final = make(map[Addr]Value, len(e.Final))
		for a, d := range e.Final {
			out.Final[a] = d
		}
	}
	return out
}
