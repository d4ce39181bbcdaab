package coherence

import (
	"context"
	"fmt"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// Verifier is the one facade over the package's decision procedures.
// Configured once with the functional options of internal/solver, it
// decides every address with the escalation ladder (ladder.go); the
// strategy only selects which rungs run.
//
//	v := coherence.NewVerifier(
//	        solver.WithStrategy(solver.StrategyFast),
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
// options it verifies with StrategyAuto and no resource bound.
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
	// Replayed reports that the verdict was carried in by a resumed
	// checkpoint (CheckpointRun), not solved; its algorithm is prefixed
	// "checkpoint:".
	Replayed bool
}

// Report is the execution-level outcome of Verifier.Verify: one
// AddrReport per address (in ascending address order) plus the
// aggregate verdict and stats.
type Report struct {
	// Verdict aggregates the per-address verdicts: Incoherent if any
	// address is incoherent, else Unknown if any address is undecided
	// or the report is partial, else Coherent.
	Verdict ResilientVerdict
	// Addrs holds the per-address reports, sorted by address.
	Addrs []AddrReport
	// Stats merges the per-address stats.
	Stats Stats
	// Checkpoint carries the resumable state of a budget-aborted
	// VerifyCheckpoint run (nil otherwise).
	Checkpoint *Checkpoint
}

// add appends an address report and folds in its stats.
func (r *Report) add(ar *AddrReport) {
	r.Addrs = append(r.Addrs, *ar)
	r.Stats.Merge(ar.Stats)
}

// finalize computes the aggregate verdict. A partial report, which a
// budget trip cut short, is never Coherent: the addresses it does not
// cover are undecided.
func (r *Report) finalize(partial bool) {
	r.Verdict = VerdictCoherent
	if partial {
		r.Verdict = VerdictUnknown
	}
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
// strategy and budget, in address order. With solver.WithParallelSearch
// each exact search it runs gets the worker team, one address at a time.
//
// A budget trip the strategy does not degrade aborts the run at the
// affected address, returning the partial Report (the addresses before
// it) alongside the *solver.ErrBudgetExceeded. A partial Report's
// Verdict is VerdictIncoherent when an address it covers is incoherent
// and VerdictUnknown otherwise, never VerdictCoherent. StrategyResilient
// degrades the affected address and continues, so its Report always
// covers every address unless the context is cancelled.
func (v *Verifier) Verify(ctx context.Context, exec *memory.Execution) (*Report, error) {
	return v.report(ctx, exec, nil)
}

// VerifyCheckpoint is Verify with explicit checkpoint state: results
// already present in resume are replayed without solving, the
// interrupted address's search is seeded from its saved memo table, and
// on a budget abort the returned Report's Checkpoint field captures
// everything needed to continue later (nil on success). It requires a
// strategy that always decides through the exact search (StrategyAuto
// or StrategyExact). LoadCheckpoint and Checkpoint.WriteFile carry the
// state between runs.
func (v *Verifier) VerifyCheckpoint(ctx context.Context, exec *memory.Execution, resume *Checkpoint) (*Report, error) {
	switch v.cfg.Strategy {
	case solver.StrategyAuto, solver.StrategyExact:
	default:
		return nil, fmt.Errorf("coherence: checkpointed verification requires the auto or exact strategy, not %v", v.cfg.Strategy)
	}
	run, err := ResumeCheckpointRun(exec, resume)
	if err != nil {
		return nil, err
	}
	return v.report(ctx, exec, run)
}

// VerifyEach runs Verify's address loop and hands each address's
// outcome to visit, in address order: its report, or the budget error
// that stopped its ladder (ar.Addr names the address either way). The
// loop goes on to the next address while visit returns true. With a
// non-nil run, an address the run has already settled is replayed
// (ar.Replayed) instead of solved, every other address's search is
// seeded from and snapshots into run, and each verdict is recorded in
// run unless the strategy is StrategyResilient. The error is the
// execution's validation error; visit is then never called.
func (v *Verifier) VerifyEach(ctx context.Context, exec *memory.Execution, run *CheckpointRun, visit func(ar *AddrReport, err error) bool) error {
	return v.eachAddr(ctx, exec, exec.CheckedAddresses(), v.cfg.Options, run, func(_ int, ar *AddrReport, err error) bool {
		return visit(ar, err)
	})
}

// report collects the address loop over every checked address into a
// Report, stopping at the first budget trip; with a run, the trip's
// resumable state goes into Report.Checkpoint.
func (v *Verifier) report(ctx context.Context, exec *memory.Execution, run *CheckpointRun) (*Report, error) {
	addrs := exec.CheckedAddresses()
	rep := &Report{Addrs: make([]AddrReport, 0, len(addrs))}
	var stop error
	err := v.eachAddr(ctx, exec, addrs, v.cfg.Options, run, func(_ int, ar *AddrReport, err error) bool {
		if err != nil {
			stop = err
			return false
		}
		rep.add(ar)
		return true
	})
	if err != nil {
		return nil, err
	}
	rep.finalize(stop != nil)
	if stop != nil && run != nil {
		rep.Checkpoint = run.Checkpoint()
	}
	return rep, stop
}

// eachAddr is the one address loop: Verify, VerifyCheckpoint, VerifyEach
// and SolveBatch all decide through it. It validates exec once, projects
// addrs in one pass over the histories (groupProject; more passes only
// when addrs × processes outgrows the execution) and climbs the ladder
// under opts for each address in order, handing visit the index into
// addrs and the report or budget error; it stops when visit returns
// false. A non-nil run replays, seeds and records as VerifyEach
// describes. The error is exec's validation error.
func (v *Verifier) eachAddr(ctx context.Context, exec *memory.Execution, addrs []memory.Addr, opts *Options, run *CheckpointRun, visit func(i int, ar *AddrReport, err error) bool) error {
	if err := exec.Validate(); err != nil {
		return err
	}
	gs := groupScratchPool.Get().(*groupScratch)
	defer func() {
		// An execution that is its own projection is aliased, not copied:
		// drop the instances so the pooled scratch does not keep it alive.
		clear(gs.gInsts)
		groupScratchPool.Put(gs)
	}()
	// The resilient ladder's verdicts are not recorded: a resumed run
	// climbs it again.
	record := run != nil && v.cfg.Strategy != solver.StrategyResilient
	// One pass's (address, process) tables are bounded by the
	// execution's size, so a trace with many processes and many
	// addresses is projected in several passes, not into one table of
	// addresses × processes.
	step := max(1, max(exec.NumOps(), 1<<12)/max(1, len(exec.Histories)))
	var ar AddrReport
	for lo := 0; lo < len(addrs); lo += step {
		chunk := addrs[lo:min(lo+step, len(addrs))]
		gs.groupProject(exec, chunk)
		for j, a := range chunk {
			var err error
			if run == nil || !run.replay(a, &ar) {
				o := opts
				if run != nil {
					o = run.configure(a, opts)
				}
				err = v.decide(ctx, exec, &gs.gInsts[gs.gAddrIdx[a]], o, &ar)
				if err == nil && record {
					run.record(a, ar.Result)
				}
			}
			if !visit(lo+j, &ar, err) {
				return nil
			}
		}
	}
	return nil
}
