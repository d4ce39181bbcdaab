package consistency

import (
	"context"
	"fmt"

	"memverify/internal/coherence"
	"memverify/internal/memory"
	"memverify/internal/solver"
)

// Verifier is the unified entry point for consistency verification: one
// Model plus one solver.Config, shared with the coherence facade so HTTP
// parameters, vmcheck flags and Go callers configure verification with
// the same vocabulary. The zero-cost construction makes per-request
// verifiers cheap; a Verifier is safe for concurrent use.
type Verifier struct {
	model Model
	cfg   *solver.Config
}

// NewVerifier builds a Verifier for model. Options compose left to
// right; the default is an unbounded search.
//
// The strategy applies to the models that decompose per address
// (CoherenceOnly, LRC, and the promise check of VSCC) — it is forwarded
// to the nested coherence.Verifier. The whole-execution
// searches (SC, VSCC's second phase, TSO, PSO) are single searches and
// honor the budget knobs; SC and VSCC run the coherence kernel, so they
// also honor solver.WithParallelSearch. solver.WithWriteOrders
// constrains the SC search to the supplied per-address write orders
// (§5.2 augmentation).
func NewVerifier(model Model, opts ...solver.ConfigOption) *Verifier {
	return &Verifier{model: model, cfg: solver.NewConfig(opts...)}
}

// Model returns the model this verifier checks.
func (v *Verifier) Model() Model { return v.model }

// Config exposes the verifier's configuration (shared, not a copy).
func (v *Verifier) Config() *solver.Config { return v.cfg }

// coherenceVerifier builds the nested per-address facade carrying this
// verifier's whole configuration (strategy, workers, budget, orders).
func (v *Verifier) coherenceVerifier() *coherence.Verifier {
	return coherence.NewVerifier(solver.WithConfig(v.cfg))
}

// Verify checks exec against the verifier's model. For CoherenceOnly the
// result's Schedule is empty (coherence certificates are per address; use
// coherence.Verifier.Verify directly for those) and Stats aggregates the
// per-address solves.
func (v *Verifier) Verify(ctx context.Context, exec *memory.Execution) (*Result, error) {
	opts := v.cfg.Options
	switch v.model {
	case SC:
		// A non-nil order map — even an empty one — means the caller asked
		// for the constrained solver, which validates completeness of the
		// orders instead of silently searching unconstrained.
		if v.cfg.WriteOrders != nil {
			return solveVSCWithWriteOrders(ctx, exec, v.cfg.WriteOrders, opts)
		}
		if err := exec.Validate(); err != nil {
			return nil, err
		}
		return solveVSC(ctx, exec, nil, opts, "vsc-search")
	case TSO:
		return verifyTSO(ctx, exec, opts)
	case PSO:
		return verifyPSO(ctx, exec, opts)
	case CoherenceOnly:
		rep, err := v.coherenceVerifier().Verify(ctx, exec)
		if err != nil {
			return nil, err
		}
		res := &Result{Consistent: rep.Coherent(), Decided: true, Algorithm: "per-address-coherence", Stats: rep.Stats}
		return res, nil
	case LRC:
		return verifyLRC(ctx, exec, opts)
	case VSCC:
		return v.solveVSCC(ctx, exec)
	default:
		return nil, fmt.Errorf("consistency: unknown model %v", v.model)
	}
}

// solveVSCC decides the Verifying Sequential Consistency with Coherence
// promise problem (Definition 6.2). It first checks the promise — a
// coherent schedule exists for each address — and returns an error if the
// promise does not hold (the problem is then undefined). It then decides
// VSC. Per §6.3 this second step remains NP-Complete even though the
// promise holds.
func (v *Verifier) solveVSCC(ctx context.Context, exec *memory.Execution) (*Result, error) {
	rep, err := v.coherenceVerifier().Verify(ctx, exec)
	if err != nil {
		return nil, err
	}
	if bad, violated := rep.FirstViolation(); violated {
		return nil, fmt.Errorf("consistency: VSCC promise violated: address %d has no coherent schedule", bad)
	}
	res, err := solveVSC(ctx, exec, nil, v.cfg.Options, "vsc-search")
	if err != nil {
		return nil, err
	}
	res.Algorithm = "vscc"
	return res, nil
}
