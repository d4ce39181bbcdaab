// Package consistency implements verification of memory consistency
// models over executions, per Section 6 of Cantin, Lipasti & Smith.
//
// The entry point is the Verifier facade: construct one with NewVerifier
// for a Model and the shared solver.Config functional options, then call
// Verify. The models are:
//
//   - SC decides Verifying Sequential Consistency (Definition 6.1;
//     NP-Complete, Gibbons & Korach) on the coherence package's
//     exact-search kernel (coherence.SearchSC): the VMC search with one
//     value slot per address instead of one, so SC shares its packed
//     memo, pooled scratch and parallel search (solver.WithParallelSearch).
//     With solver.WithWriteOrders the search additionally respects the
//     supplied per-address write orders (the §5.2 memory-system
//     augmentation applied to VSC — still NP-Complete, §6.3).
//   - VSCC decides the promise problem Verifying Sequential Consistency
//     with Coherence (Definition 6.2): coherence of the instance is
//     established per address first, then VSC is decided on the same
//     kernel — which remains NP-Complete (§6.3).
//   - TSO and PSO are operational store-buffer checkers for the Sun
//     relaxed models named in §6.2, grounding the claim that relaxed
//     hardware models still embed coherence per location. A store
//     buffer is not a value slot, so they keep their own search, but
//     they memoize into the same solver.MemoSet.
//   - LRC checks executions written in the fully synchronized discipline
//     of Figure 6.1 (every access bracketed by acquire and release),
//     under which Lazy Release Consistency forces per-address
//     serialization, i.e. coherence.
//   - CoherenceOnly delegates to the coherence.Verifier facade and
//     requires only per-address serialization.
//
// MergeSchedules implements the VSC-Conflict construction (§6.3): given
// one coherent schedule per address it builds a sequentially consistent
// schedule in near-linear time, or reports that this particular set of
// coherent schedules cannot be merged.
//
// Every verification takes a context.Context and shares the resource
// budget machinery of internal/solver with the coherence package:
// cancellation, Options.Timeout and Options.MaxStates all abort a solve
// with a *solver.ErrBudgetExceeded carrying the partial Stats.
package consistency

import (
	"fmt"
	"strings"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// Model names a memory consistency model supported by Verify.
type Model int

const (
	// SC is sequential consistency (Lamport).
	SC Model = iota
	// TSO is Sun/x86 Total Store Order: per-processor FIFO store buffers
	// with read forwarding; RMWs and fences drain the buffer.
	TSO
	// PSO is Sun Partial Store Order: per-processor, per-address FIFO
	// store buffers; writes to different addresses may commit out of
	// order.
	PSO
	// CoherenceOnly requires only per-address serialization (the weakest
	// model the paper considers; every hardware model implies it).
	CoherenceOnly
	// LRC is Lazy Release Consistency restricted to fully synchronized
	// executions (Figure 6.1 discipline).
	LRC
	// VSCC is the Verifying Sequential Consistency with Coherence promise
	// problem (Definition 6.2): the per-address coherence promise is
	// checked first and its violation is an error, then VSC is decided.
	VSCC
)

// ParseModel maps a model name (case-insensitive; "" and "sc" both mean
// SC, "coherence" means CoherenceOnly) to its Model. It is the shared
// vocabulary for HTTP parameters and CLI flags.
func ParseModel(name string) (Model, error) {
	switch strings.ToLower(name) {
	case "", "sc":
		return SC, nil
	case "tso":
		return TSO, nil
	case "pso":
		return PSO, nil
	case "coherence":
		return CoherenceOnly, nil
	case "lrc":
		return LRC, nil
	case "vscc":
		return VSCC, nil
	default:
		return SC, fmt.Errorf("consistency: unknown model %q (want sc, tso, pso, coherence, lrc or vscc)", name)
	}
}

// String returns the conventional model name.
func (m Model) String() string {
	switch m {
	case SC:
		return "SC"
	case TSO:
		return "TSO"
	case PSO:
		return "PSO"
	case CoherenceOnly:
		return "Coherence"
	case LRC:
		return "LRC"
	case VSCC:
		return "VSCC"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Options control the search-based verifiers; the type is shared with
// internal/coherence via internal/solver, so one options value
// configures both packages. The zero value (or nil) requests a complete
// memoized search with no resource bound.
type Options = solver.Options

// Stats describes the work a verifier performed (shared with
// internal/coherence via internal/solver).
type Stats = solver.Stats

// Result is the outcome of a consistency query. It implements
// solver.Verdict.
type Result struct {
	// Consistent reports whether the execution adheres to the model.
	Consistent bool
	// Decided is retained for legacy callers: verifiers now report
	// budget exhaustion as a *solver.ErrBudgetExceeded instead of
	// returning an undecided result, so any Result returned without
	// error has Decided == true.
	Decided bool
	// Schedule is a witness sequentially consistent schedule, when the
	// model admits one (SC, VSCC, merge). Relaxed-model verifiers return
	// Events instead.
	Schedule memory.Schedule
	// Events is a witness event trace for the operational verifiers
	// (TSO, PSO): the issue/commit interleaving that reproduces the
	// execution's values.
	Events []Event
	// Algorithm names the decision procedure used.
	Algorithm string
	// Stats describes the work performed.
	Stats Stats
}

// Holds implements solver.Verdict.
func (r *Result) Holds() bool { return r.Consistent }

// IsDecided implements solver.Verdict.
func (r *Result) IsDecided() bool { return r.Decided }

// AlgorithmName implements solver.Verdict.
func (r *Result) AlgorithmName() string { return r.Algorithm }

// SolverStats implements solver.Verdict.
func (r *Result) SolverStats() solver.Stats { return r.Stats }

// Certificate implements solver.Verdict.
func (r *Result) Certificate() memory.Schedule { return r.Schedule }
