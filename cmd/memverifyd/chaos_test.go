package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// This file is the chaos tests' fault layer. A production server never
// runs it: newServer leaves Server.faults nil, and only a server built
// by newChaosServer reads the X-Chaos-Fault header.

// faultKind names one injectable service fault.
type faultKind int

const (
	// faultNone is the absence of a fault (the zero value, so an
	// unassigned schedule slot injects nothing).
	faultNone faultKind = iota
	// faultPanic panics inside a fleet worker mid-shard: the server must
	// recover it, answer 500, and keep the worker alive.
	faultPanic
	// faultSlow stalls one shard's solve, simulating a pathologically
	// hard instance hogging a worker.
	faultSlow
	// faultDrop severs the client connection before any response bytes.
	faultDrop
	// fault500 answers an immediate HTTP 500.
	fault500
	// faultDegrade forces the brownout path on one request whatever the
	// live queue-delay EWMA, so the degraded response shape is
	// exercised deterministically.
	faultDegrade
	numFaultKinds
)

// faultNames spell the kinds as the X-Chaos-Fault header does.
var faultNames = [numFaultKinds]string{"none", "panic", "slow", "drop", "500", "degrade"}

func (k faultKind) String() string { return faultNames[k] }

// parseFault maps a header spelling back to its kind; "" is faultNone.
func parseFault(header string) (faultKind, error) {
	name := strings.ToLower(strings.TrimSpace(header))
	if name == "" {
		return faultNone, nil
	}
	for k, n := range faultNames {
		if n == name {
			return faultKind(k), nil
		}
	}
	return faultNone, fmt.Errorf("chaos: unknown fault kind %q (want panic, slow, drop, 500 or degrade)", header)
}

// buildSchedule assigns at most one fault to each of n request slots:
// with probability rate a slot draws one of the five kinds uniformly,
// otherwise it stays faultNone. The plan is a pure function of the
// seed, so the test knows it, and its per-kind counts, before the first
// request is sent. The draws and the kind order are those BENCH_PR8.json
// was recorded with: seed 1, 400 slots and rate 0.05 assign
// 500:6 degrade:3 drop:8 panic:4 slow:3.
func buildSchedule(seed int64, n int, rate float64) []faultKind {
	rng := rand.New(rand.NewSource(seed))
	out := make([]faultKind, n)
	for i := range out {
		if rng.Float64() < rate {
			out[i] = faultPanic + faultKind(rng.Intn(int(numFaultKinds-faultPanic)))
		}
	}
	return out
}

// countSchedule tallies a schedule by kind name, faultNone excluded.
func countSchedule(sched []faultKind) map[string]int {
	out := make(map[string]int)
	for _, k := range sched {
		if k != faultNone {
			out[k.String()]++
		}
	}
	return out
}

// faultPlan is one request's fault, carried in its context from the
// middleware to the hook calls on the solve path.
type faultPlan struct {
	kind faultKind
	// fired makes a worker fault one-shot per request: a multi-address
	// request runs many shards, but a single injected panic is the
	// scenario, and it keeps retried shard math simple.
	fired atomic.Bool
}

type faultPlanKey struct{}

// planFrom extracts the request's fault plan (nil when it carries none).
func planFrom(ctx context.Context) *faultPlan {
	p, _ := ctx.Value(faultPlanKey{}).(*faultPlan)
	return p
}

// is reports whether the plan's fault is k. Nil-safe.
func (p *faultPlan) is(k faultKind) bool { return p != nil && p.kind == k }

// take claims the plan's fault if it is k and not yet fired.
func (p *faultPlan) take(k faultKind) bool { return p.is(k) && p.fired.CompareAndSwap(false, true) }

// faultInjector is the Server.faults hook of the chaos tests, and its
// wrap is the middleware that reads each request's fault.
type faultInjector struct {
	slow  time.Duration               // the stall of a slow fault
	fired [numFaultKinds]atomic.Int64 // requests seen, by fault kind
}

// newChaosServer is newTestServer with the fault layer installed.
func newChaosServer(t *testing.T, cfg serverConfig, slow time.Duration) (*Server, *httptest.Server, *faultInjector) {
	t.Helper()
	s := newServer(cfg)
	in := &faultInjector{slow: slow}
	s.faults = in
	ts := httptest.NewServer(in.wrap(s.Handler()))
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts, in
}

// wrap turns X-Chaos-Fault headers on /v1/verify into injected faults.
// The connection-level kinds (500, drop) fire here; the worker-level
// kinds (panic, slow, degrade) ride the request context to the hook.
func (in *faultInjector) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/verify" {
			next.ServeHTTP(w, r)
			return
		}
		kind, err := parseFault(r.Header.Get("X-Chaos-Fault"))
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		in.fired[kind].Add(1)
		switch kind {
		case faultNone:
			next.ServeHTTP(w, r)
		case fault500:
			writeError(w, http.StatusInternalServerError, "chaos: injected 500")
		case faultDrop:
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			// No hijack support (HTTP/2): the closest observable effect
			// is a 500.
			writeError(w, http.StatusInternalServerError, "chaos: injected connection drop")
		default:
			ctx := context.WithValue(r.Context(), faultPlanKey{}, &faultPlan{kind: kind})
			next.ServeHTTP(w, r.WithContext(ctx))
		}
	})
}

func (in *faultInjector) degradeReason(ctx context.Context) string {
	if planFrom(ctx).is(faultDegrade) {
		return "chaos: forced degrade"
	}
	return ""
}

func (in *faultInjector) missCache(ctx context.Context) bool {
	p := planFrom(ctx)
	return p.is(faultPanic) || p.is(faultSlow)
}

func (in *faultInjector) beforeSolve(ctx context.Context) {
	p := planFrom(ctx)
	if p.take(faultPanic) {
		panic("chaos: injected worker panic")
	}
	if p.take(faultSlow) {
		t := time.NewTimer(in.slow)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
	}
}
