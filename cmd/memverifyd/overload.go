package main

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// This file is the overload-control brain of memverifyd: the drain-rate
// estimator behind the adaptive Retry-After and deadline-aware
// shedding, and the brownout controller that downgrades requests when
// queue delay says the fleet is saturated.

// drainAlpha is the EWMA smoothing factor for the fleet's shard
// completion rate (per drain tick), and drainTick the estimator's
// observation window.
const (
	drainAlpha = 0.3
	drainTick  = 250 * time.Millisecond
)

// drainRate estimates the fleet's shard completion rate as an EWMA,
// fed by the server's drain ticker (completions observed per tick).
// Until the first tick that saw a completion it reports cold — callers
// must fall back to a fixed answer rather than divide by a guess.
type drainRate struct {
	mu   sync.Mutex
	rate float64 // shards per second
	warm bool
}

// tick folds one observation window into the EWMA.
func (d *drainRate) tick(completed int64, dt time.Duration) {
	if d == nil || dt <= 0 {
		return
	}
	inst := float64(completed) / dt.Seconds()
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.warm {
		// Cold start: no completion has ever been seen, so there is no
		// rate to decay toward — the first productive window seeds it.
		if completed == 0 {
			return
		}
		d.rate = inst
		d.warm = true
		return
	}
	d.rate += drainAlpha * (inst - d.rate)
}

// estimate returns the smoothed rate and whether the estimator has
// warmed up. Nil-safe.
func (d *drainRate) estimate() (float64, bool) {
	if d == nil {
		return 0, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rate, d.warm
}

// retryAfterSecs converts an estimated queue wait into the Retry-After
// answer for a rejected request: ceil(queued shards ÷ drain rate),
// clamped to [1, max] seconds. The floor matters under an
// empty-then-bursty queue — a fast drain over an empty queue estimates
// ~0s, and "Retry-After: 0" invites the thundering herd right back.
// Cold estimators answer the 1s floor.
func retryAfterSecs(queued int, rate float64, warm bool, max time.Duration) int {
	secs := 1
	if warm && rate > 0 {
		secs = int(math.Ceil(float64(queued+1) / rate))
	}
	if secs < 1 {
		secs = 1
	}
	if maxS := int(max / time.Second); maxS >= 1 && secs > maxS {
		secs = maxS
	}
	return secs
}

// brownoutState is the degradation controller's position, framed as a
// breaker: closed = full service, open = browned out (new requests are
// downgraded), half-open = load has dropped below the low-water mark
// and the controller is waiting out the hold before restoring full
// service.
type brownoutState int32

const (
	brownClosed brownoutState = iota
	brownHalfOpen
	brownOpen
)

func (s brownoutState) String() string {
	switch s {
	case brownClosed:
		return "closed"
	case brownHalfOpen:
		return "half-open"
	case brownOpen:
		return "open"
	}
	return fmt.Sprintf("brownoutState(%d)", int32(s))
}

// brownoutAlpha is the queue-delay EWMA smoothing factor (per shard
// dequeue observation).
const brownoutAlpha = 0.2

// brownout watches the queue-delay EWMA and decides when the service
// degrades. Hysteresis is two-threshold plus a hold: the controller
// opens when the EWMA crosses high, moves to half-open when it falls
// below low (< high), and only closes after hold consecutive
// below-low observations — so a saturated fleet is not flapped between
// full and degraded service by every lull.
type brownout struct {
	high, low float64 // ns
	hold      int

	mu    sync.Mutex
	ewma  float64 // ns
	state brownoutState
	calm  int
	opens int64
}

// newBrownout builds a controller; high <= 0 disables (nil receiver).
func newBrownout(high, low time.Duration, hold int) *brownout {
	if high <= 0 {
		return nil
	}
	if low <= 0 || low >= high {
		low = high / 2
	}
	if hold <= 0 {
		hold = 3
	}
	return &brownout{high: float64(high), low: float64(low), hold: hold}
}

// observe folds one queue-delay sample into the EWMA and advances the
// state machine. Nil-safe (disabled controller never opens).
func (b *brownout) observe(wait time.Duration) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ewma += brownoutAlpha * (float64(wait) - b.ewma)
	switch b.state {
	case brownClosed:
		if b.ewma > b.high {
			b.state = brownOpen
			b.opens++
		}
	case brownOpen:
		if b.ewma < b.low {
			b.state = brownHalfOpen
			b.calm = 0
		}
	case brownHalfOpen:
		switch {
		case b.ewma > b.high:
			b.state = brownOpen
			b.opens++
		case b.ewma < b.low:
			b.calm++
			if b.calm >= b.hold {
				b.state = brownClosed
			}
		default:
			// Between the water marks: neither recovering nor relapsing;
			// the hold starts over.
			b.calm = 0
		}
	}
}

// snapshot returns the state, the current EWMA, and how many times the
// controller has opened. Nil-safe: disabled reads as closed.
func (b *brownout) snapshot() (brownoutState, time.Duration, int64) {
	if b == nil {
		return brownClosed, 0, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, time.Duration(b.ewma), b.opens
}

// degrading reports whether new requests should be downgraded now.
func (b *brownout) degrading() bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == brownOpen
}
