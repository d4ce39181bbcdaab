package solver

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"memverify/internal/obs"
)

// eventSink records every obs event, for asserting worker_panic emission.
type eventSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (s *eventSink) Emit(e obs.Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *eventSink) count(k obs.Kind) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

func TestErrWorkerPanic(t *testing.T) {
	var err error = &ErrWorkerPanic{Label: "w1", Value: "boom"}
	if got := err.Error(); !strings.Contains(got, "w1") || !strings.Contains(got, "boom") {
		t.Errorf("Error() = %q, want label and value", got)
	}
	wp, ok := AsWorkerPanic(fmt.Errorf("wrapped: %w", err))
	if !ok || wp.Label != "w1" {
		t.Errorf("AsWorkerPanic through wrapping = %v, %v", wp, ok)
	}
	if _, ok := AsWorkerPanic(errors.New("plain")); ok {
		t.Error("AsWorkerPanic matched a non-panic error")
	}
}

func TestRecoverToError(t *testing.T) {
	sink := &eventSink{}
	ctx := obs.With(context.Background(), &obs.Observer{Tracer: obs.NewTracer(sink)})
	run := func() (err error) {
		defer RecoverToError(ctx, "entry", &err)
		panic("invariant broken")
	}
	err := run()
	wp, ok := AsWorkerPanic(err)
	if !ok {
		t.Fatalf("err = %v, want *ErrWorkerPanic", err)
	}
	if wp.Label != "entry" || fmt.Sprint(wp.Value) != "invariant broken" {
		t.Errorf("panic payload = %+v", wp)
	}
	if len(wp.Stack) == 0 {
		t.Error("no stack captured")
	}
	if sink.count(obs.KindWorkerPanic) != 1 {
		t.Errorf("worker_panic events = %d, want 1", sink.count(obs.KindWorkerPanic))
	}
	// No panic: the error return stays untouched.
	clean := func() (err error) {
		defer RecoverToError(ctx, "entry", &err)
		return nil
	}
	if err := clean(); err != nil {
		t.Errorf("clean run returned %v", err)
	}
}

// TestPoolGoPanicIsolated: a panicking pool worker must not crash the
// process, must release its slot, and must emit a worker_panic event.
func TestPoolGoPanicIsolated(t *testing.T) {
	sink := &eventSink{}
	ctx := obs.With(context.Background(), &obs.Observer{Tracer: obs.NewTracer(sink)})
	p := NewPool(1)
	done := make(chan struct{})
	p.Go(ctx, func() { defer close(done); panic("worker bug") }, nil)
	<-done
	// The slot must have been released: a second submission runs.
	ran := make(chan struct{})
	p.Go(ctx, func() { close(ran) }, nil)
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("slot not released after worker panic")
	}
	if sink.count(obs.KindWorkerPanic) != 1 {
		t.Errorf("worker_panic events = %d, want 1", sink.count(obs.KindWorkerPanic))
	}
}
