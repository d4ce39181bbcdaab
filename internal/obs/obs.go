// Package obs is the unified observability layer for every solver and
// simulator in this repository. It defines a structured event model
// (spans plus point events with monotonic timestamps), a Sink interface
// events flow into, and three stock consumers:
//
//   - a JSONL trace writer (NewJSONL) behind the vmcheck -trace flag;
//   - a sampling progress reporter (StartProgress) behind -progress,
//     fed by a Registry's lock-free search counters;
//   - an expvar + net/http/pprof debug endpoint (ServeDebug) behind
//     -debug-addr on vmcheck and cmd/experiments.
//
// A Registry of counters, gauges and histograms is the one metrics
// substrate: PromHandler serves it at /metrics, DebugHandler renders it
// under the expvar name "memverify", and its SearchCounters are what the
// solvers flush into.
//
// Emitters reach the layer through a context: entry points call
// TracerFrom / SearchFrom once per solve and keep the (possibly nil)
// handles in their searcher state. Every Tracer and Span method is
// nil-safe, so the disabled path costs one pointer test per event site
// and zero allocations — the hot DFS loops stay within the <5%
// regression budget measured by BenchmarkObsOverhead. Search counters
// are updated in batches at the searcher's existing every-64-states
// budget poll, never per state.
//
// The package deliberately imports only the standard library: solver,
// coherence, consistency, sat, mesi and directory all emit into it
// without dependency cycles.
package obs

import "context"

// Kind discriminates structured event types.
type Kind uint8

const (
	// KindSpanBegin / KindSpanEnd bracket a unit of work (a per-address
	// solve, one search algorithm, a pool worker). Spans nest:
	// a begin event carries the id of its enclosing span as Parent.
	KindSpanBegin Kind = iota
	KindSpanEnd
	// KindStateEnter is a DFS search visiting a new state.
	KindStateEnter
	// KindBacktrack is a DFS search abandoning a state with no candidate
	// left.
	KindBacktrack
	// KindMemoHit / KindMemoMiss are failed-state cache lookups.
	KindMemoHit
	KindMemoMiss
	// KindEagerReads is a batch of reads scheduled by the eager rule
	// (N holds the batch size).
	KindEagerReads
	// KindBudgetPoll is the searcher's periodic budget/cancellation
	// check (every 64 states; States holds the running count).
	KindBudgetPoll
	// KindStage is an escalation-ladder rung entered (Name: "fast",
	// "specialist", "exact", ...).
	KindStage
	// KindWorkerStart / KindWorkerEnd bracket a worker goroutine on the
	// shared pool or the parallel verifier (Proc holds the worker id).
	KindWorkerStart
	KindWorkerEnd
	// KindBus is a snooping-bus transaction in the MESI simulator
	// (Name: "bus-rd", "bus-rdx", "upgr", "inval", "wb").
	KindBus
	// KindDirectory is a directory-protocol action (Name: "fetch",
	// "inval", "wb").
	KindDirectory
	// KindSAT is a SAT-solver milestone (Name: "restart"; States holds
	// the conflict count).
	KindSAT
	// KindWorkerPanic is a panic recovered inside a pool worker or a
	// search entry point (Name labels the worker, Detail the panic
	// value); the event is the audit trail.
	KindWorkerPanic
	// KindCheckpoint is a search-state snapshot taken for crash-safe
	// resume (States holds the state count at the snapshot, N the number
	// of memoized entries captured).
	KindCheckpoint
	// KindDegrade is an escalation-ladder step past a rung that could
	// not decide: an inconclusive fast path, or an exact search that
	// exhausted its budget under a degrading strategy (Name holds the
	// rung stepped to, Detail the trigger).
	KindDegrade
)

var kindNames = [...]string{
	KindSpanBegin:   "span_begin",
	KindSpanEnd:     "span_end",
	KindStateEnter:  "state_enter",
	KindBacktrack:   "backtrack",
	KindMemoHit:     "memo_hit",
	KindMemoMiss:    "memo_miss",
	KindEagerReads:  "eager_reads",
	KindBudgetPoll:  "budget_poll",
	KindStage:       "stage",
	KindWorkerStart: "worker_start",
	KindWorkerEnd:   "worker_end",
	KindBus:         "bus",
	KindDirectory:   "dir",
	KindSAT:         "sat",
	KindWorkerPanic: "worker_panic",
	KindCheckpoint:  "checkpoint",
	KindDegrade:     "degrade",
}

// String names the kind as it appears in the JSONL "ev" field.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one structured observation. Fields not meaningful for a kind
// are zero and omitted from the JSONL encoding.
type Event struct {
	// TS is nanoseconds since the tracer started (monotonic clock).
	TS int64
	// Kind says what happened.
	Kind Kind
	// Span is the id of the span the event belongs to (or, for
	// KindSpanBegin/KindSpanEnd, the span itself). 0 means no span.
	Span uint64
	// Parent is the enclosing span id on KindSpanBegin events.
	Parent uint64
	// Name labels spans, stages, and protocol transactions.
	Name string
	// Addr is the memory address involved; HasAddr reports validity
	// (address 0 is legitimate).
	Addr    int64
	HasAddr bool
	// Depth is the search depth at the event.
	Depth int
	// States is a running state (or conflict) counter.
	States int64
	// N is a generic count: eager-read batch size, memo entries at a
	// checkpoint, bus value.
	N int64
	// Proc is a worker / processor id; -1 when not applicable.
	Proc int
	// Detail carries free-text context (verdicts, error strings).
	Detail string
	// Req is the request id of the serving request (memverifyd stamps
	// one per HTTP request); set on KindSpanBegin events so a whole
	// request's span tree can be stitched out of a shared JSONL trace.
	Req string
}

// Sink consumes events. Implementations must be safe for concurrent use:
// parallel workers emit from multiple goroutines.
type Sink interface {
	Emit(e Event)
}

// multi fans one event out to several sinks.
type multi []Sink

func (m multi) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// Multi combines sinks into one; nil sinks are dropped. A single
// remaining sink is returned unwrapped.
func Multi(sinks ...Sink) Sink {
	var kept multi
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}

// Observer bundles the per-run observability handles carried through a
// context: an event tracer and the registry the search counters live
// in. Either field may be nil.
type Observer struct {
	Tracer   *Tracer
	Registry *Registry
}

type observerKey struct{}
type spanKey struct{}
type requestIDKey struct{}

// With attaches an observer to the context. Solver entry points pick it
// up with TracerFrom / SearchFrom.
func With(ctx context.Context, o *Observer) context.Context {
	if o == nil || (o.Tracer == nil && o.Registry == nil) {
		return ctx
	}
	return context.WithValue(ctx, observerKey{}, o)
}

// From returns the observer attached to ctx, or nil.
func From(ctx context.Context) *Observer {
	o, _ := ctx.Value(observerKey{}).(*Observer)
	return o
}

// TracerFrom returns the context's tracer, or nil. A nil tracer is a
// valid no-op receiver for every Tracer method.
func TracerFrom(ctx context.Context) *Tracer {
	if o := From(ctx); o != nil {
		return o.Tracer
	}
	return nil
}

// spanFrom returns the innermost span id on ctx (0 at the root).
func spanFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// WithRequestID attaches a request id to the context. Every span begun
// under the returned context carries the id in its begin event, so one
// request's spans can be filtered out of a trace shared by concurrent
// requests. An empty id returns ctx unchanged.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom returns the request id on ctx, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}
