package solver

import (
	"context"
	"time"

	"memverify/internal/obs"
)

// FlushInterval matches the budget's context-poll amortization window:
// a search pushes live metrics at most once per 64 states.
const FlushInterval = 64

// Probe connects one search to the observers on its context: the span
// its trace events go to and the registry search counters its Stats
// flush into. With neither attached On is false and every hook costs one
// test.
type Probe struct {
	Tr  *obs.Tracer
	Sp  obs.Span
	Met *obs.SearchCounters
	On  bool

	flushed Stats // counters at the last Poll
}

// Attach resolves the observers on ctx and resets the flush baseline.
func (p *Probe) Attach(ctx context.Context) {
	*p = Probe{Tr: obs.TracerFrom(ctx), Met: obs.SearchFrom(ctx)}
	p.On = p.Tr != nil || p.Met != nil
}

// Poll adds st's counters since the last Poll to the search counters
// and emits the budget-poll event; depth is the current schedule length.
// Searches call it every FlushInterval states and once when they stop.
func (p *Probe) Poll(st *Stats, depth int) {
	if p.Met != nil {
		p.Met.Flush(
			int64(st.States-p.flushed.States),
			int64(st.MemoHits-p.flushed.MemoHits),
			int64(st.MemoMisses-p.flushed.MemoMisses),
			int64(st.EagerReads-p.flushed.EagerReads),
			int64(st.Branches-p.flushed.Branches),
			depth)
		p.flushed = *st
	}
	if p.Tr != nil {
		p.Tr.BudgetPoll(p.Sp, int64(st.States), depth)
	}
}

// Run brackets one sequential search: its budget, its clock and its
// probe. Begin starts all three; Stop records the duration and takes the
// last flush; End closes the span. The caller defers Budget.Stop.
type Run struct {
	Budget Budget
	Probe
	start time.Time
}

// Begin starts the clock and the budget and attaches the probe. The
// caller opens Sp, if it wants one.
func (r *Run) Begin(ctx context.Context, opts *Options) {
	r.start = time.Now()
	r.Budget.Reset(ctx, opts)
	r.Attach(ctx)
}

// Stop records the solve's duration in st and flushes the last deltas.
func (r *Run) Stop(st *Stats, depth int) {
	st.Duration = time.Since(r.start)
	if r.On {
		r.Poll(st, depth)
	}
}

// End closes the span with outcome, or, when abort is non-nil, with the
// budget reason after handing abort the partial stats.
func (r *Run) End(st Stats, abort *ErrBudgetExceeded, outcome string) {
	if abort != nil {
		abort.Stats = st
		outcome = "budget: " + abort.Reason.String()
	}
	r.Sp.End(outcome, int64(st.States))
}
