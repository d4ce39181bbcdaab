package coherence

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"

	"memverify/internal/memory"
	"memverify/internal/obs"
	"memverify/internal/solver"
)

// Verifier is the one facade over the package's decision procedures.
// Configured once with the functional options of internal/solver, it
// decides every address with the escalation ladder (ladder.go); the
// strategy only selects which rungs run.
//
//	v := coherence.NewVerifier(
//	        solver.WithStrategy(solver.StrategyFast),
//	        solver.WithWorkers(8),
//	        solver.WithBudget(solver.WithMaxStates(1e6), solver.WithTimeout(time.Second)),
//	)
//	report, err := v.Verify(ctx, exec)
//
// A Verifier is immutable after construction and safe for concurrent
// use; the long-running verification service constructs a handful and
// shares them across all requests.
type Verifier struct {
	cfg *solver.Config
}

// NewVerifier builds a Verifier from functional options. With no
// options it verifies sequentially with StrategyAuto and no resource
// bound.
func NewVerifier(opts ...solver.ConfigOption) *Verifier {
	return &Verifier{cfg: solver.NewConfig(opts...)}
}

// AddrReport is the per-address outcome of the escalation ladder. Every
// strategy but StrategyResilient decides (Verdict is Coherent or
// Incoherent, Result non-nil); StrategyResilient may end at
// VerdictUnknown with a nil Result and the necessary-condition evidence
// in Checks.
type AddrReport struct {
	// Addr is the address this report covers.
	Addr memory.Addr
	// Verdict is the three-valued answer for the address.
	Verdict ResilientVerdict
	// Rung is the ladder rung that produced the verdict.
	Rung Rung
	// Result is the deciding rung's result (certificate, algorithm,
	// per-solve stats); nil when Verdict is Unknown.
	Result *Result
	// Stats aggregates all work spent on the address: every rung tried,
	// including an inconclusive fast path and the partial stats of an
	// exhausted search (Stats.Merge sums their durations).
	Stats Stats
	// Checks lists the necessary-condition outcomes when the ladder
	// reached RungNecessary.
	Checks []string
}

// Report is the execution-level outcome of Verifier.Verify: one
// AddrReport per address (in ascending address order) plus the
// aggregate verdict and stats.
type Report struct {
	// Verdict aggregates the per-address verdicts: Incoherent if any
	// address is incoherent, else Unknown if any address is undecided,
	// else Coherent.
	Verdict ResilientVerdict
	// Addrs holds the per-address reports, sorted by address.
	Addrs []AddrReport
	// Stats merges the per-address stats.
	Stats Stats
	// Checkpoint carries the resumable state of a budget-aborted
	// checkpointed run (nil otherwise); see solver.WithCheckpoint.
	Checkpoint *Checkpoint
}

// add appends an address report and folds in its stats.
func (r *Report) add(ar *AddrReport) {
	r.Addrs = append(r.Addrs, *ar)
	r.Stats.Merge(ar.Stats)
}

// finalize computes the aggregate verdict.
func (r *Report) finalize() {
	r.Verdict = VerdictCoherent
	for i := range r.Addrs {
		switch r.Addrs[i].Verdict {
		case VerdictIncoherent:
			r.Verdict = VerdictIncoherent
			return
		case VerdictUnknown:
			r.Verdict = VerdictUnknown
		}
	}
}

// Coherent reports whether every address was proven coherent.
func (r *Report) Coherent() bool { return r.Verdict == VerdictCoherent }

// Results returns the decided per-address results keyed by address.
// Addresses whose resilient verdict is Unknown are absent.
func (r *Report) Results() map[memory.Addr]*Result {
	out := make(map[memory.Addr]*Result, len(r.Addrs))
	for i := range r.Addrs {
		if res := r.Addrs[i].Result; res != nil {
			out[r.Addrs[i].Addr] = res
		}
	}
	return out
}

// FirstViolation returns the lowest address whose verdict is not
// Coherent, in address order (ok=false when all addresses are coherent).
func (r *Report) FirstViolation() (memory.Addr, bool) {
	for i := range r.Addrs {
		if r.Addrs[i].Verdict != VerdictCoherent {
			return r.Addrs[i].Addr, true
		}
	}
	return 0, false
}

// Solve decides VMC for a single address under the configured strategy
// and budget. The returned Result is never nil on a nil error; under
// StrategyResilient an Unknown ladder outcome is reported as a Result
// with Decided == false (use SolveAddr for the full three-valued report).
func (v *Verifier) Solve(ctx context.Context, exec *memory.Execution, addr memory.Addr) (*Result, error) {
	ar, err := v.SolveAddr(ctx, exec, addr)
	if err != nil {
		return nil, err
	}
	if ar.Result != nil {
		return ar.Result, nil
	}
	return &Result{Coherent: false, Decided: false, Algorithm: "resilient-unknown", Stats: ar.Stats}, nil
}

// SolveAddr decides VMC for a single address under the configured
// strategy and returns the per-address report.
func (v *Verifier) SolveAddr(ctx context.Context, exec *memory.Execution, addr memory.Addr) (*AddrReport, error) {
	if err := exec.Validate(); err != nil {
		return nil, err
	}
	ar := new(AddrReport)
	if err := v.decide(ctx, exec, project(exec, addr), v.cfg.Options, ar); err != nil {
		return nil, err
	}
	return ar, nil
}

// Verify checks every address of the execution under the configured
// strategy, budget and parallelism.
//
// A budget trip the strategy does not degrade aborts the run on the
// first affected address (in address order — deterministic even with
// workers), returning the partial Report alongside the
// *solver.ErrBudgetExceeded; StrategyResilient degrades the affected
// address and continues, so its Report always covers every address
// unless the context is cancelled. With solver.WithCheckpoint
// configured, verification is sequential, resumes from the checkpoint
// file when it exists, and re-writes it on a budget abort.
func (v *Verifier) Verify(ctx context.Context, exec *memory.Execution) (*Report, error) {
	if err := exec.Validate(); err != nil {
		return nil, err
	}
	if v.cfg.CheckpointPath != "" {
		return v.verifyCheckpointFile(ctx, exec)
	}
	if v.cfg.Workers > 1 {
		return v.verifyParallel(ctx, exec, v.cfg.Workers)
	}
	return v.verifySequential(ctx, exec)
}

// verifySequential is the address-order loop behind sequential Verify.
func (v *Verifier) verifySequential(ctx context.Context, exec *memory.Execution) (*Report, error) {
	rep := &Report{}
	var ar AddrReport
	for _, a := range exec.CheckedAddresses() {
		if err := v.decide(ctx, exec, project(exec, a), v.cfg.Options, &ar); err != nil {
			return rep, err
		}
		rep.add(&ar)
	}
	rep.finalize()
	return rep, nil
}

// verifyParallel fans the per-address checks out across workers
// goroutines. Coherence is defined address-by-address (Section 3), so
// the checks are embarrassingly parallel; on wide multi-address traces
// this is a near-linear speedup.
//
// Results are deterministic: each per-address solve is independent and
// runs to its own completion or budget regardless of goroutine
// scheduling, and when several addresses fail the returned error is
// always the one for the lowest address — so two runs over the same
// input produce diffable output.
//
// Addresses are dispatched largest-projection-first (see hardnessOrder):
// the per-address search is worst-case exponential in projection size,
// so starting the heaviest address last would leave one worker grinding
// alone after the rest drain. Dispatch order affects only load balance,
// never results.
//
// When the configuration also carries solver.WithParallelSearch, the
// intra-instance worker team goes to the hardest address only (the LPT
// head): that address is the one whose single search dominates the
// makespan, and giving every concurrent per-address solve its own team
// would oversubscribe the machine workers × team wide. The remaining
// addresses solve sequentially as before. Parallelism never changes
// verdicts, so this is purely a scheduling decision.
func (v *Verifier) verifyParallel(ctx context.Context, exec *memory.Execution, workers int) (*Report, error) {
	addrs := exec.CheckedAddresses()
	if workers > len(addrs) {
		workers = len(addrs)
	}
	if workers <= 1 {
		return v.verifySequential(ctx, exec)
	}

	order := hardnessOrder(addrs, projectionSizes(exec))
	teamOpts, soloOpts := v.cfg.Options, v.cfg.Options
	hardest := -1
	if teamOpts.PSearch() > 1 && len(addrs) > 1 {
		hardest = order[0]
		solo := teamOpts.Clone()
		solo.ParallelSearch = 0
		soloOpts = solo
	}

	// Workers write into per-address slots, so no result ordering
	// depends on channel receive order.
	reports := make([]AddrReport, len(addrs))
	errs := make([]error, len(addrs))
	next := make(chan int)
	var wg sync.WaitGroup
	tr := obs.TracerFrom(ctx)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			wctx := ctx
			if tr != nil {
				sp, sctx := tr.BeginWorker(ctx, "verify-worker", w)
				defer sp.EndWorker(w, "done")
				wctx = sctx
			}
			for i := range next {
				opts := soloOpts
				if i == hardest {
					opts = teamOpts
				}
				errs[i] = v.decide(wctx, exec, project(exec, addrs[i]), opts, &reports[i])
			}
		}()
	}
	for _, i := range order {
		next <- i
	}
	close(next)
	wg.Wait()

	rep := &Report{}
	for i := range addrs {
		if errs[i] != nil {
			return rep, errs[i]
		}
		rep.add(&reports[i])
	}
	rep.finalize()
	return rep, nil
}

// VerifyCheckpoint is Verify with explicit checkpoint state: results
// already present in resume are replayed without solving, the
// interrupted address's search is seeded from its saved memo table, and
// on a budget abort the returned Report's Checkpoint field captures
// everything needed to continue later (nil on success). Checkpointing
// serializes the address loop by design and requires a strategy that
// always decides through the exact search (StrategyAuto or
// StrategyExact).
func (v *Verifier) VerifyCheckpoint(ctx context.Context, exec *memory.Execution, resume *Checkpoint) (*Report, error) {
	if err := exec.Validate(); err != nil {
		return nil, err
	}
	return v.verifyCheckpoint(ctx, exec, resume)
}

// verifyCheckpoint is VerifyCheckpoint on a validated execution.
func (v *Verifier) verifyCheckpoint(ctx context.Context, exec *memory.Execution, resume *Checkpoint) (*Report, error) {
	switch v.cfg.Strategy {
	case solver.StrategyAuto, solver.StrategyExact:
	default:
		return nil, fmt.Errorf("coherence: checkpointed verification requires the auto or exact strategy, not %v", v.cfg.Strategy)
	}
	run, err := ResumeCheckpointRun(exec, resume)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	var ar AddrReport
	for _, a := range exec.CheckedAddresses() {
		if r, ok := run.Lookup(a); ok {
			ar = AddrReport{Addr: a, Verdict: VerdictCoherent, Rung: RungExact, Result: r, Stats: r.Stats}
			if !r.Coherent {
				ar.Verdict = VerdictIncoherent
			}
			rep.add(&ar)
			continue
		}
		if err := v.decide(ctx, exec, project(exec, a), run.Configure(a, v.cfg.Options), &ar); err != nil {
			if _, ok := solver.AsBudgetError(err); ok {
				rep.Checkpoint = run.Checkpoint()
			}
			return rep, err
		}
		run.Record(a, ar.Result)
		rep.add(&ar)
	}
	rep.finalize()
	return rep, nil
}

// verifyCheckpointFile implements solver.WithCheckpoint: resume from the
// configured path when a checkpoint file exists there, and persist the
// resumable state back to it when a budget trip aborts the run.
func (v *Verifier) verifyCheckpointFile(ctx context.Context, exec *memory.Execution) (*Report, error) {
	var resume *Checkpoint
	if _, statErr := os.Stat(v.cfg.CheckpointPath); statErr == nil {
		ck, err := LoadCheckpoint(v.cfg.CheckpointPath)
		if err != nil {
			return nil, err
		}
		resume = ck
	} else if !errors.Is(statErr, os.ErrNotExist) {
		return nil, statErr
	}
	rep, err := v.verifyCheckpoint(ctx, exec, resume)
	if rep != nil && rep.Checkpoint != nil {
		if werr := rep.Checkpoint.WriteFile(v.cfg.CheckpointPath); werr != nil {
			return rep, errors.Join(err, werr)
		}
	}
	return rep, err
}

// AddressesByHardness returns the execution's checked addresses
// (memory.Execution.CheckedAddresses) ordered largest-projection-first
// (ties by ascending address) — the LPT
// dispatch order used by parallel verification. The verification
// service uses it to shard a request's per-address work across its
// global worker fleet in the same order.
func AddressesByHardness(exec *memory.Execution) []memory.Addr {
	addrs := exec.CheckedAddresses()
	sizes := projectionSizes(exec)
	out := make([]memory.Addr, len(addrs))
	for i, idx := range hardnessOrder(addrs, sizes) {
		out[i] = addrs[idx]
	}
	return out
}
