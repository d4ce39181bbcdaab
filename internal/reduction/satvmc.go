// Package reduction implements the paper's hardness constructions as
// executable code:
//
//   - SATToVMC: the general SAT -> VMC reduction of Figure 4.1 (used by
//     Theorem 4.2 to prove VMC NP-Complete), with the worked example of
//     Figure 4.2 as a special case;
//   - SATToVMCSynchronized: the same instance with every operation
//     bracketed by acquire/release (Figure 6.1), extending the reduction
//     to Lazy Release Consistency;
//   - ThreeSATToVMCRestricted: the 3SAT -> VMC reduction of Figure 5.1
//     producing instances with at most three operations per process and
//     every value written at most twice;
//   - ThreeSATToVMCRMW: a 3SAT -> VMC reduction onto read-modify-write
//     instances with at most two RMWs per process and every value written
//     at most three times (Figure 5.2's parameters);
//   - SATToVSCC: the SAT -> VSCC reduction of Figure 6.2, producing
//     multi-address executions that are coherent by construction
//     (Figure 6.3) yet NP-hard to check for sequential consistency.
//
// Every constructor returns the execution together with a decoder that
// maps a certificate schedule back to a satisfying assignment, so the
// equivalence "Q satisfiable <=> instance coherent/SC" is machine-checked
// in both directions by the tests and the experiment harness.
package reduction

import (
	"fmt"

	"memverify/internal/memory"
	"memverify/internal/sat"
)

// VMCInstance is the output of a SAT -> VMC construction: a
// single-address execution plus the metadata needed to interpret
// certificate schedules.
type VMCInstance struct {
	// Exec is the constructed execution; all data-memory operations
	// target Addr.
	Exec *memory.Execution
	// Addr is the single shared address of the instance.
	Addr memory.Addr
	// Formula is the source formula.
	Formula *sat.Formula

	// varTrue[i] and varFalse[i] identify, for variable i+1, the
	// operations whose relative order in a schedule encodes the truth
	// assignment: varTrue first means "true".
	varTrue  []memory.Ref
	varFalse []memory.Ref
}

// DecodeAssignment extracts the truth assignment encoded by a schedule of
// the instance, per the correspondence (4.1): variable u is true iff the
// designated write for u precedes the designated write for ¬u.
func (v *VMCInstance) DecodeAssignment(s memory.Schedule) (sat.Assignment, error) {
	pos := make(map[memory.Ref]int, len(s))
	for i, r := range s {
		pos[r] = i
	}
	asg := make(sat.Assignment, v.Formula.NumVars+1)
	for i := 0; i < v.Formula.NumVars; i++ {
		pt, okT := pos[v.varTrue[i]]
		pf, okF := pos[v.varFalse[i]]
		if !okT || !okF {
			return nil, fmt.Errorf("reduction: schedule does not contain the assignment operations for variable %d", i+1)
		}
		asg[i+1] = pt < pf
	}
	return asg, nil
}

// SATToVMC builds the VMC instance of Figure 4.1 for formula q. The
// instance has 2m+3 process histories and O(mn) operations for m
// variables and n clauses, and it has a coherent schedule iff q is
// satisfiable (Lemma 4.3).
//
// Value encoding: the initial value d_I is 0; variable u_i contributes
// d_{u_i} = 2i-1 and d_{¬u_i} = 2i; clause c_j contributes d_{c_j} =
// 2m+j.
func SATToVMC(q *sat.Formula) (*VMCInstance, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	const addr memory.Addr = 0
	m := q.NumVars
	dU := func(i int) memory.Value { return memory.Value(2*i - 1) } // i is 1-based
	dNotU := func(i int) memory.Value { return memory.Value(2 * i) }
	dC := func(j int) memory.Value { return memory.Value(2*m + j + 1) } // j is 0-based

	// clausesOf[l] lists (0-based) clause indices containing literal l.
	clausesOf := make(map[sat.Lit][]int)
	for j, c := range q.Clauses {
		seen := make(map[sat.Lit]bool)
		for _, l := range c {
			if !seen[l] {
				seen[l] = true
				clausesOf[l] = append(clausesOf[l], j)
			}
		}
	}

	exec := &memory.Execution{}
	inst := &VMCInstance{Exec: exec, Addr: addr, Formula: q}

	// h1 writes d_{u_i} for every variable; h2 writes d_{¬u_i}.
	var h1, h2 memory.History
	for i := 1; i <= m; i++ {
		inst.varTrue = append(inst.varTrue, memory.Ref{Proc: 0, Index: len(h1)})
		h1 = append(h1, memory.W(addr, dU(i)))
		inst.varFalse = append(inst.varFalse, memory.Ref{Proc: 1, Index: len(h2)})
		h2 = append(h2, memory.W(addr, dNotU(i)))
	}
	exec.Histories = append(exec.Histories, h1, h2)

	// Literal histories: read the pair in the order that means "this
	// literal is true", then write d_c for each clause the literal
	// appears in.
	for i := 1; i <= m; i++ {
		hu := memory.History{memory.R(addr, dU(i)), memory.R(addr, dNotU(i))}
		for _, j := range clausesOf[sat.Lit(i)] {
			hu = append(hu, memory.W(addr, dC(j)))
		}
		hnu := memory.History{memory.R(addr, dNotU(i)), memory.R(addr, dU(i))}
		for _, j := range clausesOf[sat.Lit(-i)] {
			hnu = append(hnu, memory.W(addr, dC(j)))
		}
		exec.Histories = append(exec.Histories, hu, hnu)
	}

	// h3 reads every clause value, then rewrites all variable values so
	// the false-literal histories can complete.
	var h3 memory.History
	for j := range q.Clauses {
		h3 = append(h3, memory.R(addr, dC(j)))
	}
	for i := 1; i <= m; i++ {
		h3 = append(h3, memory.W(addr, dU(i)))
	}
	for i := 1; i <= m; i++ {
		h3 = append(h3, memory.W(addr, dNotU(i)))
	}
	exec.Histories = append(exec.Histories, h3)

	exec.SetInitial(addr, 0)
	return inst, nil
}

// SATToVMCSynchronized builds the Figure 6.1 variant of the Figure 4.1
// instance: identical histories with every memory operation bracketed by
// Acquire/Release, extending the reduction to consistency models that
// relax coherence but provide synchronization primitives (Lazy Release
// Consistency). The returned instance is in the fully synchronized
// discipline accepted by the consistency package's LRC verifier.
func SATToVMCSynchronized(q *sat.Formula) (*VMCInstance, error) {
	inst, err := SATToVMC(q)
	if err != nil {
		return nil, err
	}
	wrapped := &memory.Execution{Initial: inst.Exec.Initial, Final: inst.Exec.Final}
	for _, h := range inst.Exec.Histories {
		var out memory.History
		for _, o := range h {
			out = append(out, memory.Acq(), o, memory.Rel())
		}
		wrapped.Histories = append(wrapped.Histories, out)
	}
	// Re-point the assignment markers: op at index k is now at 3k+1.
	remap := func(rs []memory.Ref) []memory.Ref {
		out := make([]memory.Ref, len(rs))
		for i, r := range rs {
			out[i] = memory.Ref{Proc: r.Proc, Index: 3*r.Index + 1}
		}
		return out
	}
	return &VMCInstance{
		Exec:     wrapped,
		Addr:     inst.Addr,
		Formula:  inst.Formula,
		varTrue:  remap(inst.varTrue),
		varFalse: remap(inst.varFalse),
	}, nil
}

// Restrictions summarizes the structural parameters of a constructed
// instance, for validating the Section 5 restricted cases.
type Restrictions struct {
	Histories         int
	Operations        int
	MaxOpsPerProcess  int
	MaxWritesPerValue int
	AllRMW            bool
}

// Measure computes the restriction parameters of an execution at an
// address.
func Measure(exec *memory.Execution, addr memory.Addr) Restrictions {
	r := Restrictions{
		Histories:        len(exec.Histories),
		Operations:       exec.NumMemoryOps(),
		MaxOpsPerProcess: exec.MaxOpsPerProcess(),
		AllRMW:           true,
	}
	for _, count := range exec.WritesPerValue(addr) {
		if count > r.MaxWritesPerValue {
			r.MaxWritesPerValue = count
		}
	}
	for _, h := range exec.Histories {
		for _, o := range h {
			if o.IsMemory() && o.Kind != memory.ReadModifyWrite {
				r.AllRMW = false
			}
		}
	}
	return r
}
