// Package solver is the shared engine substrate for every verification
// solver in this repository (the VMC solvers in internal/coherence and
// the VSC/TSO/PSO/LRC checkers in internal/consistency). It provides:
//
//   - Options: one options type shared by all solvers, with functional
//     options (WithMaxStates, WithTimeout, WithoutMemoization, ...);
//   - Budget: a per-solve resource budget combining a state-count limit,
//     a wall-clock timeout, and context cancellation;
//   - ErrBudgetExceeded: the typed error returned when a budget trips,
//     carrying the partial Stats accumulated up to the abort;
//   - Stats: uniform per-solve instrumentation (states explored, memo
//     hits/misses, peak search depth, branch factor, eager-read count);
//   - Verdict: the interface unifying coherence.Result and
//     consistency.Result so callers can render one report format;
//   - Pool: a bounded worker pool with panic isolation, used by the
//     parallel exact search's worker team;
//   - MemoSet and Layout: the one failed-state memo every exact search
//     uses — an open-addressing set of fixed-width keys of one or more
//     uint64 words, laid out per instance;
//   - Run and Probe: the bracket around one search (budget, clock,
//     span) and the one flush of its Stats deltas into live metrics.
package solver

import (
	"time"

	"memverify/internal/memory"
)

// Options control the search-based solvers. The zero value (or a nil
// *Options) asks for a complete, memoized, eager-read search with no
// resource bound. Both internal/coherence and internal/consistency alias
// this type, so an *Options value can be passed to either package.
type Options struct {
	// MaxStates bounds the number of search states explored. 0 means
	// unlimited. When the bound is hit the solver returns
	// *ErrBudgetExceeded carrying the partial Stats.
	MaxStates int
	// Timeout bounds the wall-clock time of a single solve. 0 means no
	// timeout. It composes with any deadline already on the incoming
	// context; whichever expires first aborts the solve.
	Timeout time.Duration
	// DisableMemoization turns off failed-state caching (ablation knob:
	// without it the search is the naive exponential interleaving
	// enumeration, not the paper's O(n^k) constant-process algorithm).
	DisableMemoization bool
	// DisableEagerReads turns off the rule that schedules an enabled read
	// immediately when its value matches the current one (ablation knob;
	// the rule is sound because reads do not change the memory state, so
	// any coherent schedule can be rearranged to schedule such a read at
	// the point it first becomes enabled).
	DisableEagerReads bool
	// DisableFastPath turns off the polynomial constraint-propagation
	// frontline (internal/coherence's fast path): the ladder drops its
	// fast rung, so StrategyFast runs like StrategyAuto and
	// StrategyResilient starts at the specialists. Ablation and
	// crossover-benchmark knob — the frontline is sound, so disabling it
	// can only cost time, never change a verdict.
	DisableFastPath bool
	// CheckpointSink, when non-nil, receives search-state snapshots so an
	// interrupted solve can later resume: periodically (every
	// CheckpointEvery states, piggybacked on the existing every-64-states
	// budget poll so the hot loop pays only a nil check), and once more
	// when the solve aborts on a budget trip. The sink must not retain
	// the snapshot's slices beyond the call unless it copies them —
	// snapshots hand over freshly built copies, so retaining is safe; the
	// caveat is documented for future zero-copy variants.
	CheckpointSink func(SearchSnapshot)
	// CheckpointEvery is the number of search states between periodic
	// snapshots (default 4096 when CheckpointSink is set; ignored
	// otherwise). Snapshot cost is O(memo table), so very small values
	// can dominate the search.
	CheckpointEvery int
	// ResumeMemo seeds the search's failed-state cache from a prior
	// checkpoint. Seeding is sound: a memoized state records that no
	// coherent completion exists from it, a fact of the instance, not of
	// the search configuration — so the resumed search prunes everything
	// the interrupted one had already refuted. Keys are opaque,
	// algorithm-specific serializations; resuming against a different
	// instance is guarded by the checkpoint file's fingerprint, not here.
	ResumeMemo []string
	// ParallelSearch, when > 1, lets a single exact search split its DFS
	// frontier across this many workers sharing one memo table and one
	// atomically-charged budget (see internal/coherence's parallel
	// search). Every search on the coherence kernel takes it: VMC's exact
	// rung and the SC and VSCC searches. Parallelism never changes
	// verdicts: the workers explore the same state space, certificates
	// stay valid, and budget aborts still report exact state counts. 0 or
	// 1 searches sequentially. Searches that must snapshot
	// (CheckpointSink set) stay sequential — checkpointing is documented
	// as sequential-only — as do searches with memoization off and
	// instances too small to split.
	ParallelSearch int
}

// SearchSnapshot is the resumable state of an in-flight search: the
// memoized failed-state keys, the current DFS frontier (the partial
// schedule as projection refs), and the partial stats. The slices are
// copies owned by the receiver.
type SearchSnapshot struct {
	Memo     []string
	Frontier []memory.Ref
	Stats    Stats
}

// Option is a functional option for New.
type Option func(*Options)

// New builds an *Options from functional options. New() with no
// arguments is equivalent to a nil *Options (unbounded complete search).
func New(opts ...Option) *Options {
	o := &Options{}
	for _, f := range opts {
		f(o)
	}
	return o
}

// WithMaxStates bounds the number of search states explored.
func WithMaxStates(n int) Option { return func(o *Options) { o.MaxStates = n } }

// WithTimeout bounds the wall-clock time of a single solve.
func WithTimeout(d time.Duration) Option { return func(o *Options) { o.Timeout = d } }

// WithoutMemoization disables failed-state caching.
func WithoutMemoization() Option { return func(o *Options) { o.DisableMemoization = true } }

// WithoutEagerReads disables the eager read-scheduling rule.
func WithoutEagerReads() Option { return func(o *Options) { o.DisableEagerReads = true } }

// WithoutFastPath disables the polynomial constraint-propagation
// frontline (ablation knob; see Options.DisableFastPath).
func WithoutFastPath() Option { return func(o *Options) { o.DisableFastPath = true } }

// WithParallelSearch lets a single exact search fan its DFS frontier out
// across n workers (see Options.ParallelSearch). 0 or 1 searches
// sequentially.
func WithParallelSearch(n int) Option { return func(o *Options) { o.ParallelSearch = n } }

// Limit returns the state bound (0 = unlimited). Nil-safe.
func (o *Options) Limit() int {
	if o == nil {
		return 0
	}
	return o.MaxStates
}

// SolveTimeout returns the per-solve wall-clock bound (0 = none).
// Nil-safe.
func (o *Options) SolveTimeout() time.Duration {
	if o == nil {
		return 0
	}
	return o.Timeout
}

// Memoize reports whether failed-state caching is on. Nil-safe.
func (o *Options) Memoize() bool { return o == nil || !o.DisableMemoization }

// EagerReads reports whether the eager read rule is on. Nil-safe.
func (o *Options) EagerReads() bool { return o == nil || !o.DisableEagerReads }

// FastPath reports whether the polynomial frontline is on. Nil-safe.
func (o *Options) FastPath() bool { return o == nil || !o.DisableFastPath }

// PSearch returns the intra-instance search worker count (0 or 1 =
// sequential). Nil-safe.
func (o *Options) PSearch() int {
	if o == nil {
		return 0
	}
	return o.ParallelSearch
}

// Sink returns the checkpoint sink (nil when checkpointing is off).
// Nil-safe.
func (o *Options) Sink() func(SearchSnapshot) {
	if o == nil {
		return nil
	}
	return o.CheckpointSink
}

// ResumeMemoSeed returns the memo keys to seed a resumed search with
// (nil for a fresh search). Nil-safe.
func (o *Options) ResumeMemoSeed() []string {
	if o == nil {
		return nil
	}
	return o.ResumeMemo
}

// SnapshotEvery returns the state interval between periodic checkpoint
// snapshots (0 when checkpointing is off). Nil-safe.
func (o *Options) SnapshotEvery() int {
	if o == nil || o.CheckpointSink == nil {
		return 0
	}
	if o.CheckpointEvery > 0 {
		return o.CheckpointEvery
	}
	return 4096
}

// Clone returns a copy of o (an empty Options when o is nil), so callers
// can derive variant configurations without mutating shared values.
func (o *Options) Clone() *Options {
	if o == nil {
		return &Options{}
	}
	c := *o
	return &c
}
