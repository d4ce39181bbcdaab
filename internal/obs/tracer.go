package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// Tracer stamps events with monotonic timestamps and span ids and hands
// them to its sink. The zero-cost contract: every method on a nil
// *Tracer returns immediately, so emitters hold one possibly-nil pointer
// and pay a single comparison per event site when tracing is off.
type Tracer struct {
	sink  Sink
	start time.Time
	seq   atomic.Uint64
}

// NewTracer wraps a sink. A nil sink yields a nil tracer, keeping the
// no-op fast path.
func NewTracer(sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink, start: time.Now()}
}

// emit stamps and forwards one event.
func (t *Tracer) emit(e Event) {
	e.TS = int64(time.Since(t.start))
	t.sink.Emit(e)
}

// Span is a handle to an open span. The zero Span (from a nil tracer)
// is a valid no-op.
type Span struct {
	t  *Tracer
	id uint64
}

// ID returns the span id (0 for the no-op span).
func (s Span) ID() uint64 { return s.id }

// Begin opens a span named name, parented to the innermost span on ctx,
// and returns the span plus a derived context carrying it. On a nil
// tracer both returns are pass-throughs and nothing is allocated.
func (t *Tracer) Begin(ctx context.Context, name string) (Span, context.Context) {
	return t.begin(ctx, name, 0, false, -1)
}

// BeginAddr is Begin for per-address work; the span begin event carries
// the address.
func (t *Tracer) BeginAddr(ctx context.Context, name string, addr int64) (Span, context.Context) {
	return t.begin(ctx, name, addr, true, -1)
}

// BeginWorker is Begin for worker goroutines; the span events carry the
// worker id.
func (t *Tracer) BeginWorker(ctx context.Context, name string, worker int) (Span, context.Context) {
	return t.begin(ctx, name, 0, false, worker)
}

func (t *Tracer) begin(ctx context.Context, name string, addr int64, hasAddr bool, proc int) (Span, context.Context) {
	if t == nil {
		return Span{}, ctx
	}
	id := t.seq.Add(1)
	t.emit(Event{
		Kind:    KindSpanBegin,
		Span:    id,
		Parent:  spanFrom(ctx),
		Name:    name,
		Addr:    addr,
		HasAddr: hasAddr,
		Proc:    proc,
		Req:     RequestIDFrom(ctx),
	})
	if proc >= 0 {
		t.emit(Event{Kind: KindWorkerStart, Span: id, Name: name, Proc: proc})
	}
	return Span{t: t, id: id}, context.WithValue(ctx, spanKey{}, id)
}

// End closes the span with a verdict detail and a final state count.
func (s Span) End(detail string, states int64) {
	if s.t == nil {
		return
	}
	s.t.emit(Event{Kind: KindSpanEnd, Span: s.id, Detail: detail, States: states})
}

// EndWorker closes a worker span, emitting the worker-finish event
// first.
func (s Span) EndWorker(worker int, detail string) {
	if s.t == nil {
		return
	}
	s.t.emit(Event{Kind: KindWorkerEnd, Span: s.id, Proc: worker, Detail: detail})
	s.t.emit(Event{Kind: KindSpanEnd, Span: s.id, Detail: detail})
}

// StateEnter records a DFS search visiting a new state.
func (t *Tracer) StateEnter(sp Span, depth int, states int64) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindStateEnter, Span: sp.id, Depth: depth, States: states})
}

// Backtrack records a DFS search abandoning a state.
func (t *Tracer) Backtrack(sp Span, depth int) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindBacktrack, Span: sp.id, Depth: depth})
}

// MemoHit records a failed-state cache hit.
func (t *Tracer) MemoHit(sp Span, depth int) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindMemoHit, Span: sp.id, Depth: depth})
}

// MemoMiss records a failed-state cache miss.
func (t *Tracer) MemoMiss(sp Span, depth int) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindMemoMiss, Span: sp.id, Depth: depth})
}

// EagerReads records a batch of n eagerly scheduled reads.
func (t *Tracer) EagerReads(sp Span, depth, n int) {
	if t == nil || n == 0 {
		return
	}
	t.emit(Event{Kind: KindEagerReads, Span: sp.id, Depth: depth, N: int64(n)})
}

// BudgetPoll records the periodic budget/cancellation check.
func (t *Tracer) BudgetPoll(sp Span, states int64, depth int) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindBudgetPoll, Span: sp.id, States: states, Depth: depth})
}

// Stage records an escalation-ladder rung entered.
func (t *Tracer) Stage(sp Span, name string) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindStage, Span: sp.id, Name: name})
}

// Bus records a MESI snooping-bus transaction.
func (t *Tracer) Bus(name string, cpu int, addr int64, value int64) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindBus, Name: name, Proc: cpu, Addr: addr, HasAddr: true, N: value})
}

// Directory records a directory-protocol action.
func (t *Tracer) Directory(name string, node int, addr int64, value int64) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindDirectory, Name: name, Proc: node, Addr: addr, HasAddr: true, N: value})
}

// SAT records a SAT-solver milestone.
func (t *Tracer) SAT(sp Span, name string, conflicts int64) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindSAT, Span: sp.id, Name: name, States: conflicts})
}

// WorkerPanic records a panic recovered inside a pool worker or race
// candidate; name labels the worker, detail carries the panic value.
func (t *Tracer) WorkerPanic(sp Span, name, detail string) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindWorkerPanic, Span: sp.id, Name: name, Detail: detail})
}

// Checkpoint records a search-state snapshot: the state count at the
// snapshot and the number of memo entries captured.
func (t *Tracer) Checkpoint(sp Span, states int64, memoEntries int) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindCheckpoint, Span: sp.id, States: states, N: int64(memoEntries)})
}

// Degrade records an escalation-ladder step past a rung that could not
// decide, to the named rung; detail carries why.
func (t *Tracer) Degrade(sp Span, rung, detail string) {
	if t == nil {
		return
	}
	t.emit(Event{Kind: KindDegrade, Span: sp.id, Name: rung, Detail: detail})
}
