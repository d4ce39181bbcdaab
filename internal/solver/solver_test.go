package solver

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilOptionsAccessors(t *testing.T) {
	var o *Options
	if o.Limit() != 0 {
		t.Errorf("Limit() = %d, want 0", o.Limit())
	}
	if o.SolveTimeout() != 0 {
		t.Errorf("SolveTimeout() = %v, want 0", o.SolveTimeout())
	}
	if !o.Memoize() || !o.EagerReads() {
		t.Error("nil options must enable every optimization")
	}
	if c := o.Clone(); c == nil || c.MaxStates != 0 {
		t.Errorf("nil Clone() = %+v, want zero options", c)
	}
}

func TestFunctionalOptions(t *testing.T) {
	o := New(
		WithMaxStates(42),
		WithTimeout(3*time.Second),
		WithoutMemoization(),
		WithoutEagerReads(),
	)
	if o.MaxStates != 42 || o.Timeout != 3*time.Second {
		t.Errorf("options = %+v", o)
	}
	if o.Memoize() || o.EagerReads() {
		t.Error("Without* options did not disable the optimizations")
	}
	if c := o.Clone(); c.MaxStates != o.MaxStates || c.Timeout != o.Timeout ||
		c.DisableMemoization != o.DisableMemoization ||
		c.DisableEagerReads != o.DisableEagerReads {
		t.Errorf("Clone() = %+v, want %+v", c, o)
	}
}

func TestBudgetStateLimit(t *testing.T) {
	b := Start(context.Background(), &Options{MaxStates: 10})
	defer b.Stop()
	for s := 1; s <= 10; s++ {
		if e := b.Charge(s); e != nil {
			t.Fatalf("state %d within budget tripped: %v", s, e)
		}
	}
	e := b.Charge(11)
	if e == nil {
		t.Fatal("state 11 over a 10-state budget did not trip")
	}
	if e.Reason != ExceededStates {
		t.Errorf("reason = %v, want ExceededStates", e.Reason)
	}
	// Sticky: later charges return the same error without re-checking.
	if again := b.Charge(12); again != e {
		t.Errorf("budget not sticky: %v != %v", again, e)
	}
	if b.Err() != e {
		t.Errorf("Err() = %v, want the trip error", b.Err())
	}
}

func TestBudgetCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := Start(ctx, nil)
	defer b.Stop()
	// The context is polled on the first charge and every 64th.
	e := b.Charge(1)
	if e == nil {
		t.Fatal("cancelled context not noticed on first charge")
	}
	if e.Reason != Canceled {
		t.Errorf("reason = %v, want Canceled", e.Reason)
	}
	if !errors.Is(e, context.Canceled) {
		t.Error("budget error does not unwrap to context.Canceled")
	}
}

func TestBudgetPollAmortization(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := Start(ctx, nil)
	defer b.Stop()
	if e := b.Charge(1); e != nil {
		t.Fatal(e)
	}
	cancel()
	// States 2..63 fall between polls: the cancellation goes unnoticed.
	for s := 2; s < ctxPollInterval; s++ {
		if e := b.Charge(s); e != nil {
			t.Fatalf("state %d polled the context off-interval: %v", s, e)
		}
	}
	if e := b.Charge(ctxPollInterval); e == nil {
		t.Errorf("state %d is a poll point and must notice the cancel", ctxPollInterval)
	}
}

func TestBudgetTimeout(t *testing.T) {
	b := Start(context.Background(), &Options{Timeout: time.Millisecond})
	defer b.Stop()
	deadline := time.Now().Add(time.Second)
	for s := 1; time.Now().Before(deadline); s++ {
		if e := b.Charge(s); e != nil {
			if e.Reason != ExceededDeadline {
				t.Errorf("reason = %v, want ExceededDeadline", e.Reason)
			}
			if !errors.Is(e, context.DeadlineExceeded) {
				t.Error("budget error does not unwrap to context.DeadlineExceeded")
			}
			return
		}
	}
	t.Fatal("1ms Options.Timeout never tripped")
}

func TestInterrupted(t *testing.T) {
	if e := Interrupted(context.Background()); e != nil {
		t.Errorf("live context reported interrupted: %v", e)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := Interrupted(ctx)
	if e == nil || e.Reason != Canceled {
		t.Errorf("Interrupted(cancelled) = %v, want Canceled", e)
	}
}

func TestErrBudgetExceededError(t *testing.T) {
	e := &ErrBudgetExceeded{Reason: ExceededStates, Stats: Stats{States: 7}}
	if got := e.Error(); got != "solver: state budget exhausted after 7 states" {
		t.Errorf("Error() = %q", got)
	}
	e.Addr, e.HasAddr = 3, true
	if got := e.Error(); got != "solver: state budget exhausted at address 3 after 7 states" {
		t.Errorf("Error() = %q", got)
	}
	wrapped := fmt.Errorf("outer: %w", e)
	if be, ok := AsBudgetError(wrapped); !ok || be != e {
		t.Error("AsBudgetError failed to unwrap a wrapped budget error")
	}
	if _, ok := AsBudgetError(errors.New("plain")); ok {
		t.Error("AsBudgetError matched a plain error")
	}
}

func TestStatsMergeAndFormat(t *testing.T) {
	a := Stats{States: 10, MemoHits: 2, MemoMisses: 8, EagerReads: 3, PeakDepth: 5, Branches: 20, Duration: time.Second}
	b := Stats{States: 5, MemoHits: 1, MemoMisses: 4, EagerReads: 2, PeakDepth: 9, Branches: 10, Duration: time.Second}
	a.Merge(b)
	if a.States != 15 || a.MemoHits != 3 || a.MemoMisses != 12 || a.EagerReads != 5 {
		t.Errorf("merged counters wrong: %+v", a)
	}
	if a.PeakDepth != 9 {
		t.Errorf("PeakDepth = %d, want max 9", a.PeakDepth)
	}
	if a.Duration != 2*time.Second {
		t.Errorf("Duration = %v, want 2s", a.Duration)
	}
	if bf := a.BranchFactor(); bf != 2 {
		t.Errorf("BranchFactor() = %v, want 2", bf)
	}
	if bf := (Stats{}).BranchFactor(); bf != 0 {
		t.Errorf("empty BranchFactor() = %v, want 0", bf)
	}
	if s := a.String(); s == "" {
		t.Error("String() empty")
	}
}

func TestStatsDepthHistogram(t *testing.T) {
	var s Stats
	for _, d := range []int{0, 1, 2, 3, 3, 5} {
		s.RecordDepth(d)
	}
	want := [DepthBuckets]int{0: 1, 1: 1, 2: 3, 3: 1}
	if s.DepthHist != want {
		t.Errorf("DepthHist = %v, want %v", s.DepthHist, want)
	}
	if got := s.DepthHistogram(); got != "0:1 1:1 2-3:3 4-7:1" {
		t.Errorf("DepthHistogram() = %q", got)
	}
	if got := (Stats{}).DepthHistogram(); got != "" {
		t.Errorf("empty DepthHistogram() = %q, want empty", got)
	}

	// Merge adds the histograms bucket by bucket.
	var other Stats
	other.RecordDepth(3)
	other.RecordDepth(100)
	s.Merge(other)
	if s.DepthHist[2] != 4 {
		t.Errorf("merged bucket 2-3 = %d, want 4", s.DepthHist[2])
	}
	if s.DepthHist[7] != 1 {
		t.Errorf("merged bucket for depth 100 = %d, want 1", s.DepthHist[7])
	}
}

func TestStatsDerivedRates(t *testing.T) {
	s := Stats{States: 1000, MemoHits: 1, MemoMisses: 3, Duration: 2 * time.Second}
	if got := s.StatesPerSec(); got != 500 {
		t.Errorf("StatesPerSec() = %v, want 500", got)
	}
	if got := (Stats{}).StatesPerSec(); got != 0 {
		t.Errorf("zero-duration StatesPerSec() = %v, want 0", got)
	}
	if got := s.MemoHitRate(); got != 0.25 {
		t.Errorf("MemoHitRate() = %v, want 0.25", got)
	}
	if got := (Stats{}).MemoHitRate(); got != 0 {
		t.Errorf("no-lookup MemoHitRate() = %v, want 0", got)
	}

	// The -stats line must surface the derived hit-rate and throughput.
	line := s.String()
	for _, want := range []string{"states=1000", "memo=1/4 (25.0%)", "rate=500/s", "t=2s"} {
		if !strings.Contains(line, want) {
			t.Errorf("String() = %q, missing %q", line, want)
		}
	}
	if line := (Stats{States: 3}).String(); !strings.Contains(line, "rate=n/a") {
		t.Errorf("duration-less String() = %q, want rate=n/a", line)
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	p := NewPool(2)
	var mu sync.Mutex
	running, peak := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		p.Go(context.Background(), func() {
			mu.Lock()
			running++
			if running > peak {
				peak = running
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			running--
			mu.Unlock()
			wg.Done()
		}, nil)
	}
	wg.Wait()
	if peak > 2 {
		t.Errorf("pool of 2 ran %d tasks at once", peak)
	}
}

func TestPoolSkipsOnCancel(t *testing.T) {
	p := NewPool(1)
	block := make(chan struct{})
	started := make(chan struct{})
	p.Go(context.Background(), func() {
		close(started)
		<-block
	}, nil)
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	skipped := make(chan struct{})
	p.Go(ctx, func() {
		t.Error("run fired although the context was cancelled while queued")
	}, func() { close(skipped) })
	cancel()
	select {
	case <-skipped:
	case <-time.After(time.Second):
		t.Fatal("skipped callback never fired")
	}
	close(block)
}
