// Package coherence implements solvers for the Verifying Memory Coherence
// (VMC) decision problem of Cantin, Lipasti & Smith (Definition 4.1):
// given a set of process histories of reads and writes to one address, is
// there a coherent schedule?
//
// VMC is NP-Complete in general (Theorem 4.2), so the package provides
// one unified facade — Verifier, constructed with the functional
// options of internal/solver — over
//
//   - a complete exponential search (solver.StrategyExact) that
//     realizes the paper's O(n^k) bound for k process histories via
//     memoization and an eager read-scheduling rule;
//   - the polynomial algorithms for every tractable row of the paper's
//     complexity-summary table (Figure 5.3): write-order supplied (§5.2),
//     read-map known (at most one write per value), one operation per
//     process, and read-modify-write chains — dispatched automatically
//     by solver.StrategyAuto;
//   - per-execution verification (Verifier.Verify), which checks each
//     address independently, per the paper's definition of a coherent
//     multiprocessor execution, optionally fanned out across workers
//     (solver.WithWorkers) in largest-projection-first order;
//   - a portfolio racer (solver.StrategyPortfolio) that stages the
//     applicable algorithms on a shared bounded pool and keeps the
//     first finisher;
//   - a graceful-degradation ladder (solver.StrategyResilient) ending
//     in an explicit Unknown verdict instead of an error;
//   - a polynomial constraint-propagation frontline
//     (solver.StrategyFast, fastpath.go) that decides structured
//     instances of any size in near-linear time — sound in both
//     directions, escalating to the exact solvers only on an explicit
//     INCONCLUSIVE — and also opens the portfolio and resilient
//     strategies (disable with solver.WithoutFastPath).
//
// The pre-facade entry points (Solve, SolveAuto, SolvePortfolio,
// SolveResilient, VerifyExecution and friends) remain as deprecated
// one-line wrappers in deprecated.go.
//
// Every entry point takes a context.Context and honors the unified
// resource budget of internal/solver: cancellation, the per-solve
// wall-clock Options.Timeout, and the Options.MaxStates bound all abort
// the solve with a *solver.ErrBudgetExceeded carrying the partial Stats.
//
// All solvers return a certificate schedule on success; certificates are
// validated by memory.CheckCoherent in the package tests.
package coherence

import (
	"context"
	"sort"

	"memverify/internal/memory"
	"memverify/internal/obs"
	"memverify/internal/solver"
)

// Options control the search-based solvers; the type is shared with
// internal/consistency via internal/solver. The zero value (or nil) asks
// for a complete, memoized, eager-read search with no resource bound.
// Construct with a literal or with solver.New(solver.WithMaxStates(n),
// solver.WithTimeout(d), ...).
type Options = solver.Options

// Stats describes the work a solver performed (shared with
// internal/consistency via internal/solver).
type Stats = solver.Stats

// Result is the outcome of a VMC query. It implements solver.Verdict.
type Result struct {
	// Coherent reports whether a coherent schedule exists.
	Coherent bool
	// Decided is retained for legacy callers: solvers now report budget
	// exhaustion as a *solver.ErrBudgetExceeded instead of returning an
	// undecided result, so any Result returned without error has
	// Decided == true.
	Decided bool
	// Schedule is a certificate coherent schedule when Coherent is true,
	// with references into the execution the solver was given.
	Schedule memory.Schedule
	// Algorithm names the algorithm that produced the result.
	Algorithm string
	// Stats describes the work performed.
	Stats Stats
}

// Holds implements solver.Verdict.
func (r *Result) Holds() bool { return r.Coherent }

// IsDecided implements solver.Verdict.
func (r *Result) IsDecided() bool { return r.Decided }

// AlgorithmName implements solver.Verdict.
func (r *Result) AlgorithmName() string { return r.Algorithm }

// SolverStats implements solver.Verdict.
func (r *Result) SolverStats() solver.Stats { return r.Stats }

// Certificate implements solver.Verdict.
func (r *Result) Certificate() memory.Schedule { return r.Schedule }

// instance is a single-address VMC instance extracted from an execution:
// the per-process histories restricted to one address, the optional
// initial and final values, and the mapping back to the original refs.
type instance struct {
	addr memory.Addr
	hist []memory.History
	// backIdx maps projection refs back to the original execution:
	// backIdx[p][i] is the original ref of the i-th projected op of
	// process p, so each row is sorted by Index. nil means the identity
	// projection (the batch driver hands single-address executions over
	// as they are).
	backIdx [][]memory.Ref
	init    *memory.Value
	final   *memory.Value
	nops    int
}

// project builds the single-address instance for addr.
func project(exec *memory.Execution, addr memory.Addr) *instance {
	proj, back := exec.Project(addr)
	inst := &instance{
		addr:    addr,
		hist:    proj.Histories,
		backIdx: back,
		nops:    proj.NumOps(),
	}
	if d, ok := proj.Initial[addr]; ok {
		v := d
		inst.init = &v
	}
	if d, ok := proj.Final[addr]; ok {
		v := d
		inst.final = &v
	}
	return inst
}

// translate maps a schedule over projection refs back to original refs.
// A nil back-map means the instance IS the original execution (the
// batch driver's identity projection), so refs translate to themselves.
func (in *instance) translate(s []memory.Ref) memory.Schedule {
	out := make(memory.Schedule, len(s))
	if in.backIdx == nil {
		copy(out, s)
		return out
	}
	for i, r := range s {
		out[i] = in.backIdx[r.Proc][r.Index]
	}
	return out
}

// projRef is the inverse of translate for one ref: the projection ref of
// original ref r, found by binary search in r's back-map row. ok is false
// when r is out of range or is not an operation of the instance.
func (in *instance) projRef(r memory.Ref) (pr memory.Ref, ok bool) {
	if r.Proc < 0 || r.Proc >= len(in.hist) || r.Index < 0 {
		return memory.Ref{}, false
	}
	if in.backIdx == nil {
		return r, r.Index < len(in.hist[r.Proc])
	}
	row := in.backIdx[r.Proc]
	i := sort.Search(len(row), func(i int) bool { return row[i].Index >= r.Index })
	if i == len(row) || row[i].Index != r.Index {
		return memory.Ref{}, false
	}
	return memory.Ref{Proc: r.Proc, Index: i}, true
}

// perHistory returns one zeroed row per history of hist, carved from a
// single backing array: the dense (proc, index) table the
// single-address algorithms use instead of maps keyed by memory.Ref.
func perHistory[T any](hist []memory.History) [][]T {
	n := 0
	for _, h := range hist {
		n += len(h)
	}
	flat := make([]T, n)
	rows := make([][]T, len(hist))
	for p, h := range hist {
		rows[p], flat = flat[:len(h):len(h)], flat[len(h):]
	}
	return rows
}

// hasWrites reports whether any operation in the instance writes.
func (in *instance) hasWrites() bool {
	for _, h := range in.hist {
		for _, o := range h {
			if _, ok := o.Writes(); ok {
				return true
			}
		}
	}
	return false
}

// allRMW reports whether every operation is a read-modify-write.
func (in *instance) allRMW() bool {
	for _, h := range in.hist {
		for _, o := range h {
			if o.Kind != memory.ReadModifyWrite {
				return false
			}
		}
	}
	return true
}

// maxOpsPerProcess returns the length of the longest projected history.
func (in *instance) maxOpsPerProcess() int {
	max := 0
	for _, h := range in.hist {
		if len(h) > max {
			max = len(h)
		}
	}
	return max
}

// maxWritesPerValue returns the largest number of writes of any single
// value.
func (in *instance) maxWritesPerValue() int {
	counts := make(map[memory.Value]int)
	max := 0
	for _, h := range in.hist {
		for _, o := range h {
			if d, ok := o.Writes(); ok {
				counts[d]++
				if counts[d] > max {
					max = counts[d]
				}
			}
		}
	}
	return max
}

// stampOps records the work of a direct polynomial algorithm: each
// operation processed counts as one state, so -stats output stays
// meaningful on every algorithm path.
func stampOps(r *Result, inst *instance) {
	if r != nil && r.Stats.States == 0 {
		r.Stats.States = inst.nops
	}
}

// beginSolve opens a per-address observability span named after the
// entry point and bumps the live solve counter. With no observer on the
// context it returns a no-op span and the unchanged context at the cost
// of one context lookup.
func beginSolve(ctx context.Context, name string, addr memory.Addr) (obs.Span, context.Context) {
	obs.MetricsFrom(ctx).SolveBegin()
	return obs.TracerFrom(ctx).BeginAddr(ctx, name, int64(addr))
}

// endSolve closes a solve span with the outcome (verdict + deciding
// algorithm, or the abort reason) and marks the solve finished.
func endSolve(ctx context.Context, sp obs.Span, r *Result, err error) {
	obs.MetricsFrom(ctx).SolveEnd()
	switch {
	case err != nil:
		detail := "error: " + err.Error()
		if be, ok := solver.AsBudgetError(err); ok {
			detail = "budget: " + be.Reason.String()
		}
		sp.End(detail, 0)
	case r.Coherent:
		sp.End("coherent ("+r.Algorithm+")", int64(r.Stats.States))
	default:
		sp.End("incoherent ("+r.Algorithm+")", int64(r.Stats.States))
	}
}

// withAddr annotates a budget error with the address being solved.
func withAddr(e *solver.ErrBudgetExceeded, addr memory.Addr) *solver.ErrBudgetExceeded {
	if e != nil && !e.HasAddr {
		e.Addr, e.HasAddr = addr, true
	}
	return e
}

// solveExact decides VMC for the operations of exec at address addr
// using the general memoized search. It is complete: absent a budget it
// always returns a decided result (at worst in exponential time — VMC
// is NP-Complete). With k histories and n operations the memoized
// search visits O(n^k · |D|) states, matching the constant-process
// polynomial bound of Figure 5.3. A tripped budget (states, deadline,
// or cancellation) yields a nil Result and a *solver.ErrBudgetExceeded.
func solveExact(ctx context.Context, exec *memory.Execution, addr memory.Addr, opts *Options) (*Result, error) {
	if err := exec.Validate(); err != nil {
		return nil, err
	}
	sp, ctx := beginSolve(ctx, "solve", addr)
	inst := project(exec, addr)
	r, e := searchInstance(ctx, inst, opts)
	if e != nil {
		err := withAddr(e, addr)
		endSolve(ctx, sp, nil, err)
		return nil, err
	}
	endSolve(ctx, sp, r, nil)
	return r, nil
}

// solveAutoAddr decides VMC for one address, dispatching to the fastest
// algorithm whose preconditions hold (Figure 5.3 rows):
//
//  1. at most one write per value  -> read-map algorithm (linear);
//  2. one operation per process    -> grouping / Eulerian-path algorithm;
//  3. otherwise                    -> general memoized search.
//
// The write-order algorithms require extra input and are exposed
// separately (SolveWithWriteOrder); solver.StrategyPortfolio instead
// races the applicable algorithms concurrently.
func solveAutoAddr(ctx context.Context, exec *memory.Execution, addr memory.Addr, opts *Options) (*Result, error) {
	if err := exec.Validate(); err != nil {
		return nil, err
	}
	sp, ctx := beginSolve(ctx, "solve-auto", addr)
	inst := project(exec, addr)
	r, err := solveAutoInstance(ctx, inst, opts)
	if err != nil {
		if be, ok := solver.AsBudgetError(err); ok {
			err = withAddr(be, addr)
		}
		endSolve(ctx, sp, nil, err)
		return nil, err
	}
	endSolve(ctx, sp, r, nil)
	return r, nil
}

// solveAutoInstance is SolveAuto on a projected instance.
func solveAutoInstance(ctx context.Context, inst *instance, opts *Options) (*Result, error) {
	if e := solver.Interrupted(ctx); e != nil {
		return nil, e
	}
	if inst.maxWritesPerValue() <= 1 {
		if r, ok := readMapInstance(inst); ok {
			return r, nil
		}
		// Ambiguous corner (initial value collides with a written value):
		// fall through to the general search.
	}
	if inst.maxOpsPerProcess() <= 1 {
		if inst.allRMW() {
			return eulerInstance(inst), nil
		}
		if r, ok := singleOpInstance(inst); ok {
			return r, nil
		}
	}
	r, e := searchInstance(ctx, inst, opts)
	if e != nil {
		return nil, e
	}
	return r, nil
}
