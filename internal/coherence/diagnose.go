package coherence

import (
	"context"
	"fmt"

	"memverify/internal/memory"
)

// Diagnosis describes a minimal incoherent core of an execution at one
// address: a sub-execution obtained by deleting operations such that the
// remainder is still incoherent, but removing any single remaining
// operation (or the final-value constraint) restores coherence. Minimal
// cores localize violations: the operations in the core are exactly the
// ones a hardware engineer needs to stare at.
type Diagnosis struct {
	// Core is the 1-minimal incoherent sub-execution.
	Core *memory.Execution
	// Addr is the diagnosed address.
	Addr memory.Addr
	// Ops lists the references (into the ORIGINAL execution) of the
	// data-memory operations retained in the core.
	Ops []memory.Ref
	// FinalValueInvolved reports whether the declared final value is
	// necessary for the incoherence (dropping it would restore
	// coherence).
	FinalValueInvolved bool
}

// Diagnose shrinks an incoherent execution at addr to a 1-minimal
// incoherent core using delta-debugging-style removal: operations are
// deleted greedily (suffixes first, then one by one) while incoherence
// persists. The result pinpoints the violation. An error is returned if
// the execution is actually coherent at addr, or if a budget (states,
// deadline, cancellation) aborts one of the inner solves.
//
// Worst-case cost is O(n) solver calls on shrinking instances.
func Diagnose(ctx context.Context, exec *memory.Execution, addr memory.Addr, opts *Options) (*Diagnosis, error) {
	if err := exec.Validate(); err != nil {
		return nil, err
	}
	inst := project(exec, addr)

	// Working copy as mutable rows of (op, originalRef), so deletions
	// keep the back-mapping.
	type row struct {
		op  memory.Op
		ref memory.Ref
	}
	rows := make([][]row, len(inst.hist))
	for p, h := range inst.hist {
		for i, o := range h {
			rows[p] = append(rows[p], row{op: o, ref: inst.backIdx[p][i]})
		}
	}
	final := inst.final

	build := func() *memory.Execution {
		e := &memory.Execution{Histories: make([]memory.History, len(rows))}
		for p := range rows {
			for _, r := range rows[p] {
				e.Histories[p] = append(e.Histories[p], r.op)
			}
		}
		if inst.init != nil {
			e.SetInitial(addr, *inst.init)
		}
		if final != nil {
			e.SetFinal(addr, *final)
		}
		return e
	}
	incoherent := func() (bool, error) {
		res, e := searchInstance(ctx, project(build(), addr), opts)
		if e != nil {
			return false, fmt.Errorf("coherence: diagnosis aborted: %w", withAddr(e, addr))
		}
		return !res.Coherent, nil
	}

	bad, err := incoherent()
	if err != nil {
		return nil, err
	}
	if !bad {
		return nil, fmt.Errorf("coherence: execution is coherent at address %d; nothing to diagnose", addr)
	}

	// Try dropping the final-value constraint first: if incoherence
	// persists without it, it is not part of the core.
	finalInvolved := false
	if final != nil {
		saved := final
		final = nil
		still, err := incoherent()
		if err != nil {
			return nil, err
		}
		if !still {
			final = saved
			finalInvolved = true
		}
	}

	// Greedy 1-minimization: repeatedly try to delete each operation
	// (scanning until a fixpoint). A deletion is kept only when the
	// remainder is still incoherent, so the loop terminates at a core
	// where every remaining operation is necessary for the violation.
	for changed := true; changed; {
		changed = false
		for p := range rows {
			for i := 0; i < len(rows[p]); i++ {
				removed := rows[p][i]
				rows[p] = append(rows[p][:i], rows[p][i+1:]...)
				still, err := incoherent()
				if err != nil {
					return nil, err
				}
				if still {
					changed = true
					i--
					continue
				}
				// Needed: put it back.
				rows[p] = append(rows[p][:i], append([]row{removed}, rows[p][i:]...)...)
			}
		}
	}

	d := &Diagnosis{Core: build(), Addr: addr, FinalValueInvolved: finalInvolved}
	for p := range rows {
		for _, r := range rows[p] {
			d.Ops = append(d.Ops, r.ref)
		}
	}
	return d, nil
}
