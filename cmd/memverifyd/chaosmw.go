package main

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"

	"memverify/internal/chaos"
)

// chaosPlan is one request's fault assignment, carried in the request
// context from the chaos middleware down to the fleet workers (the
// worker-level kinds: panic, slow, degrade).
type chaosPlan struct {
	fault chaos.Kind
	slow  time.Duration
	// fired makes worker-level faults one-shot per request: a
	// multi-address request runs many shards, but a single injected
	// panic is the scenario — and it keeps retried shard math simple.
	fired atomic.Bool
}

// take claims the plan's fault if it is kind k and not yet fired.
// Nil-safe (no plan, no fault).
func (p *chaosPlan) take(k chaos.Kind) bool {
	return p != nil && p.fault == k && p.fired.CompareAndSwap(false, true)
}

// is reports the plan's fault kind without consuming it (for
// request-level kinds like degrade). Nil-safe.
func (p *chaosPlan) is(k chaos.Kind) bool {
	return p != nil && p.fault == k
}

type chaosPlanKey struct{}

// planFrom extracts the request's chaos plan (nil when chaos is off or
// the request drew no fault).
func planFrom(ctx context.Context) *chaosPlan {
	p, _ := ctx.Value(chaosPlanKey{}).(*chaosPlan)
	return p
}

// chaosMiddleware turns fault assignments into injected faults on
// /v1/verify when the server runs with chaos enabled. Assignments come
// from the X-Chaos-Fault header (the client owns the seeded schedule
// and stamps it per request, as TestChaosAvailability does) or, when
// the server was given its own rate, from the seeded injector.
// Connection-level kinds (500, drop) fire here; worker-level kinds
// (panic, slow, degrade) ride the context into the solve path. Every
// fired fault is logged by the injector and counted per kind in the
// registry.
func (s *Server) chaosMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.cfg.chaosEnabled || r.URL.Path != "/v1/verify" {
			next.ServeHTTP(w, r)
			return
		}
		kind := chaos.KindNone
		if h := r.Header.Get("X-Chaos-Fault"); h != "" {
			k, err := chaos.ParseKind(h)
			if err != nil {
				writeError(w, http.StatusBadRequest, "%v", err)
				return
			}
			kind = k
			s.chaosInj.Force(k)
		} else {
			for _, k := range chaos.Kinds() {
				if s.chaosInj.Fire(k) {
					kind = k
					break
				}
			}
		}
		if kind != chaos.KindNone {
			s.chaosFired[kind].Inc()
		}
		switch kind {
		case chaos.KindError500:
			writeError(w, http.StatusInternalServerError, "chaos: injected 500")
			return
		case chaos.KindDropConn:
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			// No hijack support (HTTP/2, tests with plain recorders):
			// the closest observable effect is an empty 500.
			writeError(w, http.StatusInternalServerError, "chaos: injected connection drop")
			return
		case chaos.KindNone:
			next.ServeHTTP(w, r)
			return
		default:
			plan := &chaosPlan{fault: kind, slow: s.cfg.chaosSlow}
			next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), chaosPlanKey{}, plan)))
		}
	})
}

// recoveryMiddleware keeps a panicking handler from killing its
// connection: the panic is recovered, counted, and answered as a JSON
// 500, and the server stays serviceable. Worker-fleet panics are
// recovered closer to the solve (see runShard and the shard closures);
// this is the last line of defense for everything else on the mux.
func (s *Server) recoveryMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.stats.Panics.Inc()
				// Best-effort: if the handler already wrote a header,
				// this is a no-op on the status line but the connection
				// still survives.
				writeError(w, http.StatusInternalServerError, "internal error: %v", rec)
			}
		}()
		next.ServeHTTP(w, r)
	})
}
