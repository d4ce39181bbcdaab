package solver

import (
	"fmt"
	"strings"
	"time"

	"memverify/internal/obs"
)

// DepthBuckets is the number of power-of-two buckets in the per-solve
// depth histogram (bucket i counts states whose depth has bit-length i,
// so the last bucket covers depths ≥ 2^14).
const DepthBuckets = 16

// Stats describes the work a solver performed. Every solver entry point
// populates one, both on success (Result.Stats) and on a budget abort
// (ErrBudgetExceeded.Stats, the partial progress at the abort point).
type Stats struct {
	// States is the number of distinct branching states visited by the
	// search-based solvers; the direct polynomial algorithms count each
	// operation processed as one state.
	States int
	// MemoHits counts states pruned by the failed-state cache.
	MemoHits int
	// MemoMisses counts cache lookups that found no entry (states whose
	// exploration could not be skipped).
	MemoMisses int
	// EagerReads counts reads scheduled by the eager fast-path rule.
	EagerReads int
	// PeakDepth is the deepest partial schedule reached by the search
	// (the peak frontier depth in operations).
	PeakDepth int
	// Branches is the total number of candidate branches considered
	// across all visited states; Branches/States is the mean branching
	// factor.
	Branches int
	// DepthHist counts visited states by search depth in power-of-two
	// buckets (see DepthBuckets and obs.DepthBucket); it shows where
	// the search spent its states — a mass near the peak means steady
	// progress, a mass at shallow depths means thrashing near the root.
	DepthHist [DepthBuckets]int
	// Duration is the wall-clock time the solve took.
	Duration time.Duration
	// Rung is the escalation-ladder rung that produced the answer: 0
	// means a Figure 5.3 specialist or the exact search decided (the
	// normal case); positive values index the degradation rungs of
	// coherence.StrategyResilient (write-order, write-order enumeration,
	// necessary conditions); -1 means the polynomial fast-path frontline
	// decided before any other rung ran.
	// Merge keeps the maximum, so an aggregate reveals the weakest rung
	// any per-address solve fell to (the fast rung, being stronger than
	// exact for aggregation purposes, never dominates a merge).
	Rung int
	// SearchWorkers is the effective intra-instance search parallelism:
	// the number of workers that actually explored states when the solve
	// ran the parallel exact search (Options.ParallelSearch), 0 for a
	// sequential solve. Merge keeps the maximum, so an execution-level
	// aggregate reports the widest team any address used.
	SearchWorkers int
}

// RecordDepth folds one visited state's depth into the histogram.
func (s *Stats) RecordDepth(d int) {
	s.DepthHist[obs.DepthBucket(d)]++
}

// BranchFactor returns the mean branching factor (0 when no states were
// visited).
func (s Stats) BranchFactor() float64 {
	if s.States == 0 {
		return 0
	}
	return float64(s.Branches) / float64(s.States)
}

// MemoHitRate returns MemoHits / (MemoHits + MemoMisses), the fraction
// of cache lookups that pruned a state (0 when no lookups happened).
func (s Stats) MemoHitRate() float64 {
	lookups := s.MemoHits + s.MemoMisses
	if lookups == 0 {
		return 0
	}
	return float64(s.MemoHits) / float64(lookups)
}

// StatesPerSec returns the throughput of the solve (0 when no duration
// was recorded, e.g. on unmerged per-stage stats).
func (s Stats) StatesPerSec() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.States) / s.Duration.Seconds()
}

// DepthHistogram renders the non-empty histogram buckets compactly,
// e.g. "1:3 2-3:57 4-7:9". Empty when no depths were recorded.
func (s Stats) DepthHistogram() string {
	var parts []string
	for i, n := range s.DepthHist {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", obs.BucketLabel(i), n))
		}
	}
	return strings.Join(parts, " ")
}

// Merge accumulates other into s: counters and histogram buckets add,
// PeakDepth takes the maximum, Duration adds (total solver time, not
// wall-clock span). Used to aggregate per-address results into an
// execution-level summary.
func (s *Stats) Merge(other Stats) {
	s.States += other.States
	s.MemoHits += other.MemoHits
	s.MemoMisses += other.MemoMisses
	s.EagerReads += other.EagerReads
	s.Branches += other.Branches
	for i := range s.DepthHist {
		s.DepthHist[i] += other.DepthHist[i]
	}
	if other.PeakDepth > s.PeakDepth {
		s.PeakDepth = other.PeakDepth
	}
	s.Duration += other.Duration
	if other.Rung > s.Rung {
		s.Rung = other.Rung
	}
	if other.SearchWorkers > s.SearchWorkers {
		s.SearchWorkers = other.SearchWorkers
	}
}

// String renders the stats as a single human-readable line, including
// the derived memo hit-rate and throughput.
func (s Stats) String() string {
	rate := "n/a"
	if s.Duration > 0 {
		rate = fmt.Sprintf("%.0f/s", s.StatesPerSec())
	}
	line := fmt.Sprintf("states=%d memo=%d/%d (%.1f%%) eager=%d depth=%d branch=%.2f rate=%s t=%s",
		s.States, s.MemoHits, s.MemoHits+s.MemoMisses, 100*s.MemoHitRate(), s.EagerReads,
		s.PeakDepth, s.BranchFactor(), rate, s.Duration.Round(time.Microsecond))
	if s.Rung > 0 {
		line += fmt.Sprintf(" rung=%d", s.Rung)
	}
	if s.SearchWorkers > 1 {
		line += fmt.Sprintf(" workers=%d", s.SearchWorkers)
	}
	return line
}
