package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Progress is a sampling reporter for long solves: on an interval it
// samples a registry's search counters and prints one status line
// (states/sec since the last sample, current and peak depth, memo
// hit-rate, and — when a state budget is configured — how much of it the
// current solve has left). It never touches the solvers themselves, so its cost is
// one goroutine and a few atomic loads per tick.
type Progress struct {
	w        io.Writer
	c        *SearchCounters
	limit    int64 // MaxStates budget (0 = unlimited)
	interval time.Duration

	mu         sync.Mutex
	prevStates int64
	prevAt     time.Time

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// StartProgress launches the reporter; interval <= 0 defaults to 2s.
// Call Stop to halt it (a final line is printed if any work happened).
func StartProgress(w io.Writer, r *Registry, interval time.Duration, limit int64) *Progress {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	p := &Progress{
		w:        w,
		c:        r.Search(),
		limit:    limit,
		interval: interval,
		prevAt:   time.Now(),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go p.loop()
	return p
}

func (p *Progress) loop() {
	defer close(p.done)
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			p.report(time.Now())
		case <-p.stop:
			return
		}
	}
}

// Stop halts the reporter and prints a final line when any states were
// visited since the last tick.
func (p *Progress) Stop() {
	p.once.Do(func() {
		close(p.stop)
		<-p.done
		if p.c.States.Value() > p.prevStates {
			p.report(time.Now())
		}
	})
}

// report samples the counters and writes one status line. Exposed to the
// package tests via the now parameter for deterministic rates.
func (p *Progress) report(now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.c
	states := c.States.Value()
	elapsed := now.Sub(p.prevAt).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(states-p.prevStates) / elapsed
	}
	hitRate := 0.0
	if hits, misses := c.MemoHits.Value(), c.MemoMisses.Value(); hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	line := fmt.Sprintf("obs: states=%d rate=%.0f/s depth=%d peak=%d memo-hit=%.1f%% solves=%d/%d",
		states, rate, c.Depth.Value(), c.PeakDepth.Value(), 100*hitRate,
		c.SolvesDone.Value(), c.SolvesBegun.Value())
	if p.limit > 0 {
		left := p.limit - c.SolveStates()
		if left < 0 {
			left = 0
		}
		line += fmt.Sprintf(" budget-left=%d/%d", left, p.limit)
	}
	fmt.Fprintln(p.w, line)
	p.prevStates, p.prevAt = states, now
}
