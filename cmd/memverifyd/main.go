// Command memverifyd is the long-running verification service: POST a
// trace, get a verdict. Per-address VMC work is sharded across a
// bounded worker fleet (largest projection first), admission is bounded
// with backpressure (429 + an adaptive Retry-After priced from the
// observed drain rate), decided verdicts are cached by execution
// fingerprint, and the service carries its own telemetry: every request
// gets an X-Request-ID (propagated into the obs span trace), every
// stage (parse, cache, queue, solve, merge) feeds a latency histogram,
// and live saturation gauges, the Prometheus exposition, and
// in-flight/slowest request tables are all served over HTTP.
//
// The request path is built to survive overload and faults: client
// deadlines propagate in (X-Deadline-Ms header or deadline_ms field)
// and expired work is dropped before it burns a worker (504),
// unserviceable requests are shed early (429), a queue-delay brownout
// degrades new requests (their own strategy under shrunken budgets,
// "degraded": true in the response) with hysteretic recovery, and panics
// anywhere are recovered into JSON 500s.
//
// Endpoints:
//
//	POST /v1/verify       verify a trace (JSON envelope or raw trace
//	                      text; ?debug=timings echoes the stage split)
//	GET  /v1/healthz      liveness
//	GET  /v1/stats        service counters + saturation gauges
//	GET  /metrics         Prometheus text exposition (stage histograms,
//	                      gauges, counters)
//	GET  /debug/requests  in-flight request table + N slowest requests
//	                      with stage breakdowns
//	GET  /debug/vars      expvar (the registry, search counters included)
//	GET  /debug/pprof     pprof profiles
//
// The binary carries no load generator and no fault injector:
// perfbench's service workloads measure it, and TestChaosAvailability
// holds its availability under a seeded fault schedule that test code
// injects.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"memverify/internal/obs"
)

func main() {
	var (
		addr        = flag.String("addr", "localhost:8372", "listen address")
		workers     = flag.Int("workers", runtime.NumCPU(), "verification worker fleet size")
		psearch     = flag.Int("psearch", 0, "parallel-search team size for each request's hardest address (0/1 = sequential)")
		maxInflight = flag.Int("max-inflight", 64, "admitted requests before backpressure (429)")
		queueDepth  = flag.Int("queue", 256, "shard queue capacity")
		cacheSize   = flag.Int("cache", 1024, "result cache entries (0 disables)")
		maxStates   = flag.Int("max-states", 0, "default per-solve state budget (0 = unlimited)")
		timeout     = flag.Duration("timeout", 0, "default per-solve timeout (0 = none)")
		capStates   = flag.Int("cap-states", 0, "ceiling clamped onto request state budgets (0 = none)")
		capTimeout  = flag.Duration("cap-timeout", 0, "ceiling clamped onto request timeouts (0 = none)")
		traceOut    = flag.String("trace", "", "write a JSONL span/event trace of every request to this file (spans carry X-Request-ID)")
		slowReqs    = flag.Int("slow-requests", 32, "slowest requests kept for GET /debug/requests")

		retryMax      = flag.Duration("retry-after-max", 30*time.Second, "cap on the adaptive Retry-After answer (floor is always 1s)")
		brownHigh     = flag.Duration("brownout-high", 150*time.Millisecond, "queue-delay EWMA that opens the brownout (degrade new requests); 0 disables")
		brownLow      = flag.Duration("brownout-low", 0, "queue-delay EWMA below which brownout starts recovering (0 = high/2)")
		brownHold     = flag.Int("brownout-hold", 3, "consecutive calm observations before brownout closes")
		degradeStates = flag.Int("degrade-max-states", 20000, "state budget clamped onto browned-out requests")
		degradeTO     = flag.Duration("degrade-timeout", 250*time.Millisecond, "per-solve timeout clamped onto browned-out requests")
	)
	flag.Parse()

	cfg := serverConfig{
		workers:          *workers,
		psearch:          *psearch,
		maxInflight:      *maxInflight,
		queueDepth:       *queueDepth,
		cacheSize:        *cacheSize,
		maxStatesDefault: *maxStates,
		timeoutDefault:   *timeout,
		maxStatesCap:     *capStates,
		timeoutCap:       *capTimeout,
		slowRequests:     *slowReqs,
		retryAfterMax:    *retryMax,
		brownoutHigh:     *brownHigh,
		brownoutLow:      *brownLow,
		brownoutHold:     *brownHold,
		degradeMaxStates: *degradeStates,
		degradeTimeout:   *degradeTO,
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memverifyd:", err)
			os.Exit(1)
		}
		jl := obs.NewJSONL(f)
		defer func() {
			jl.Close()
			f.Close()
		}()
		cfg.traceSink = jl
	}

	srv := newServer(cfg)
	defer srv.Close()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memverifyd:", err)
		os.Exit(1)
	}
	eff := cfg.withDefaults()
	fmt.Printf("memverifyd listening on http://%s (workers=%d inflight=%d queue=%d cache=%d)\n",
		ln.Addr(), eff.workers, eff.maxInflight, eff.queueDepth, max(eff.cacheSize, 0))
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	// SIGINT/SIGTERM shut down gracefully so the deferred cleanups run —
	// without this, killing the service truncates the buffered -trace
	// JSONL mid-line.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		httpSrv.Shutdown(context.Background())
	}()
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "memverifyd:", err)
		os.Exit(1)
	}
}
