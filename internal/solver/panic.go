package solver

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"memverify/internal/obs"
)

// ErrWorkerPanic reports a panic recovered inside a solver worker — a
// pool goroutine, a parallel-search worker, or a search entry point
// guarded by RecoverToError. It converts a would-be process crash into a
// typed, inspectable error: callers can log the captured stack instead
// of dying.
type ErrWorkerPanic struct {
	// Label names the worker or entry point that panicked
	// (e.g. "psearch-worker", "vsc-search").
	Label string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace, captured at
	// recovery.
	Stack []byte
}

// Error implements error.
func (e *ErrWorkerPanic) Error() string {
	return fmt.Sprintf("solver: panic in %s: %v", e.Label, e.Value)
}

// AsWorkerPanic unwraps err to an *ErrWorkerPanic when one is in its
// chain.
func AsWorkerPanic(err error) (*ErrWorkerPanic, bool) {
	var e *ErrWorkerPanic
	if errors.As(err, &e) {
		return e, true
	}
	return nil, false
}

// newWorkerPanic packages a recovered panic value with its stack.
func newWorkerPanic(label string, value any) *ErrWorkerPanic {
	return &ErrWorkerPanic{Label: label, Value: value, Stack: debug.Stack()}
}

// RecoverToError is the standard panic guard for solver entry points:
// deferred at the top of a searcher, it converts a panic into an
// *ErrWorkerPanic assigned to *errp (and surfaces the event through any
// tracer on ctx), so a bug in one search algorithm returns an error to
// its caller instead of killing the process. Usage:
//
//	func (s *searcher) run(ctx context.Context) (res *Result, err error) {
//		defer solver.RecoverToError(ctx, "vsc-search", &err)
//		...
//	}
//
// A nil *errp only swallows the panic into the trace; callers should
// always pass their named error return.
func RecoverToError(ctx context.Context, label string, errp *error) {
	r := recover()
	if r == nil {
		return
	}
	wp := newWorkerPanic(label, r)
	obs.TracerFrom(ctx).WorkerPanic(obs.Span{}, label, fmt.Sprint(r))
	if errp != nil {
		*errp = wp
	}
}

// guard runs fn, converting a panic into an *ErrWorkerPanic and
// reporting it through onPanic (which also receives the tracer event
// emission duty of its call site).
func guard(label string, fn func(), onPanic func(*ErrWorkerPanic)) {
	defer func() {
		if r := recover(); r != nil {
			onPanic(newWorkerPanic(label, r))
		}
	}()
	fn()
}
