// Package coherence implements solvers for the Verifying Memory Coherence
// (VMC) decision problem of Cantin, Lipasti & Smith (Definition 4.1):
// given a set of process histories of reads and writes to one address, is
// there a coherent schedule?
//
// VMC is NP-Complete in general (Theorem 4.2). The package answers it
// per address with one escalation ladder (ladder.go), reached through
// one facade — Verifier, constructed with the functional options of
// internal/solver. The ladder's rungs, cheapest first:
//
//   - a polynomial constraint-propagation frontline (fastpath.go) that
//     decides structured instances of any size in near-linear time —
//     sound in both directions, escalating only on an explicit
//     INCONCLUSIVE;
//   - the polynomial algorithms for the tractable rows of the paper's
//     complexity-summary table (Figure 5.3): read-map known (at most one
//     write per value), one operation per process, and read-modify-write
//     chains;
//   - a complete exponential search that realizes the paper's O(n^k)
//     bound for k process histories via memoization and an eager
//     read-scheduling rule, sequential or split across a worker team
//     (solver.WithParallelSearch). It is the package's one exact-search
//     kernel: VMC is its one-address case, and SearchSC runs it over
//     every address of an execution for internal/consistency's SC and
//     VSCC;
//   - graceful degradation, when that search trips its budget: write-order
//     hints (§5.2), write-order enumeration, and sound necessary
//     conditions, ending in an explicit Unknown verdict instead of an
//     error.
//
// A strategy (solver.WithStrategy) is a preset of which rungs run:
// StrategyAuto (specialists, exact), StrategyFast (fast, specialists,
// exact), StrategyExact (exact only) and StrategyResilient (all of them).
// Verifier.Verify checks each address independently, per the paper's
// definition of a coherent multiprocessor execution. Verify,
// VerifyCheckpoint, VerifyEach and SolveBatch share one address loop: it
// validates the execution once, projects every address in one pass and
// climbs the ladder for each address in order. The §5.2 write-order
// algorithm and the Figure 5.3 specialists are also exported on their
// own (SolveWithWriteOrder, SolveReadMap, SolveSingleOp,
// SolveSingleOpRMW, CheckRMWWriteOrder).
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
	// Decided reports whether Coherent is an answer. Budget exhaustion
	// is an error (*solver.ErrBudgetExceeded), not an undecided Result,
	// so every solver's Result is decided; the one exception is
	// Verifier.Solve under StrategyResilient, which reports an Unknown
	// verdict as Decided == false.
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
	// projection: an execution that is its own projection (see
	// ownProjection) is handed over as it is.
	backIdx [][]memory.Ref
	init    *memory.Value
	final   *memory.Value
	nops    int
}

// project builds the single-address instance for addr. An execution
// that is its own projection is not copied: the instance aliases its
// histories and has a nil backIdx.
func project(exec *memory.Execution, addr memory.Addr) *instance {
	inst := &instance{addr: addr, hist: exec.Histories, nops: exec.NumOps()}
	if !ownProjection(exec, addr) {
		proj, back := exec.Project(addr)
		inst.hist, inst.backIdx, inst.nops = proj.Histories, back, proj.NumOps()
	}
	if d, ok := exec.Initial[addr]; ok {
		inst.init = &d
	}
	if d, ok := exec.Final[addr]; ok {
		inst.final = &d
	}
	return inst
}

// ownProjection reports whether exec is its own projection at addr:
// every operation is a memory operation at addr. Both project and the
// address loop's groupProject then skip the projection copy.
func ownProjection(exec *memory.Execution, addr memory.Addr) bool {
	for _, h := range exec.Histories {
		for _, o := range h {
			if !o.IsMemory() || o.Addr != addr {
				return false
			}
		}
	}
	return true
}

// origRef is the original ref of operation i of projected history p.
func (in *instance) origRef(p, i int) memory.Ref {
	if in.backIdx == nil {
		return memory.Ref{Proc: p, Index: i}
	}
	return in.backIdx[p][i]
}

// translate maps a schedule over projection refs back to original refs.
// A nil back-map is the identity projection: refs translate to
// themselves.
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
	obs.SearchFrom(ctx).SolveBegin()
	return obs.TracerFrom(ctx).BeginAddr(ctx, name, int64(addr))
}

// endSolve closes a solve span with the outcome (verdict + deciding
// algorithm, or the abort reason) and marks the solve finished.
func endSolve(ctx context.Context, sp obs.Span, r *Result, err error) {
	obs.SearchFrom(ctx).SolveEnd()
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
