package solver

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"memverify/internal/obs"
)

// Pool is a bounded worker pool: however many submissions arrive, at
// most `workers` solver goroutines execute at once, so a worker team
// cannot oversubscribe the machine. Submissions beyond the bound queue
// until a slot frees.
type Pool struct {
	slots chan struct{}
}

// NewPool builds a pool with the given concurrency bound
// (runtime.GOMAXPROCS(0) when workers <= 0).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{slots: make(chan struct{}, workers)}
}

// workerSeq numbers pool worker spans process-wide, so traces from
// concurrent pools stay distinguishable.
var workerSeq atomic.Int64

// Go runs `run` on a pool worker once a slot frees. If ctx is cancelled
// before a slot frees, run is never started and `skipped` (if non-nil)
// is called instead — exactly one of the two callbacks fires, so a
// caller counting completions never blocks. When ctx carries an
// obs.Tracer, the worker's lifetime is bracketed by worker start/finish
// events.
//
// A panic inside run is recovered: the pool slot is released, the
// worker span ends with the panic detail, and a worker_panic event is
// emitted — one buggy worker never kills the process. Callers that need
// the panic as a value (the parallel search workers do) must install
// their own recovery inside run; this recovery is the last-resort
// barrier.
func (p *Pool) Go(ctx context.Context, run, skipped func()) {
	go func() {
		select {
		case p.slots <- struct{}{}:
			defer func() { <-p.slots }()
			tr := obs.TracerFrom(ctx)
			var sp obs.Span
			id := -1
			if tr != nil {
				id = int(workerSeq.Add(1))
				sp, _ = tr.BeginWorker(ctx, "pool-worker", id)
			}
			detail := "done"
			guard("pool-worker", run, func(wp *ErrWorkerPanic) {
				detail = "panic: " + fmt.Sprint(wp.Value)
				tr.WorkerPanic(sp, wp.Label, fmt.Sprint(wp.Value))
			})
			if tr != nil {
				sp.EndWorker(id, detail)
			}
		case <-ctx.Done():
			if skipped != nil {
				skipped()
			}
		}
	}()
}
