package main

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memverify/internal/coherence"
	"memverify/internal/consistency"
	"memverify/internal/memory"
	"memverify/internal/obs"
	"memverify/internal/solver"
	"memverify/internal/trace"
)

// serverConfig is the operator-facing tuning surface of memverifyd.
type serverConfig struct {
	// workers is the size of the verification worker fleet — the only
	// goroutines that run solver searches.
	workers int
	// psearch, when > 1, lets the hardest address of each request split
	// its exact search across this many workers sharing one memo table
	// (solver.WithParallelSearch). Only the LPT-head shard gets a team —
	// every other shard stays sequential, so one request's fleet
	// footprint grows by at most psearch-1 transient goroutines.
	// Parallelism never changes answers, so psearch stays out of the
	// result-cache key.
	psearch int
	// maxInflight bounds admitted requests; the admission semaphore is
	// the ingest queue, and an arrival beyond the bound is answered 429
	// + Retry-After instead of buffered.
	maxInflight int
	// queueDepth bounds the shard queue between handlers and the fleet.
	queueDepth int
	// cacheSize bounds the result cache (entries); 0 disables it, as
	// the -cache flag says.
	cacheSize int
	// maxStatesCap / timeoutCap are server-side ceilings clamped onto
	// every request's budget (0 = no ceiling); maxStatesDefault /
	// timeoutDefault apply when a request names no budget.
	maxStatesCap     int
	timeoutCap       time.Duration
	maxStatesDefault int
	timeoutDefault   time.Duration
	// slowRequests bounds the slow-request table behind
	// GET /debug/requests (0 = default 32).
	slowRequests int
	// traceSink, when set, receives the JSONL span/event stream of every
	// request (the -trace flag). Spans carry the request id, so one
	// request's trace can be stitched out of the shared stream.
	traceSink obs.Sink
	// retryAfterMax caps the adaptive Retry-After answer on a 429; the
	// floor is always 1s (never 0: see retryAfterSecs).
	retryAfterMax time.Duration
	// brownoutHigh enables the brownout controller: when the queue-delay
	// EWMA crosses it, new requests are downgraded (their own strategy
	// under shrunken budgets) until the EWMA falls below brownoutLow and
	// stays there for brownoutHold observations. 0 disables brownout.
	brownoutHigh time.Duration
	brownoutLow  time.Duration
	brownoutHold int
	// degradeMaxStates / degradeTimeout are the shrunken budgets clamped
	// onto a browned-out request. They are fixed values, not fractions of
	// the request's ask, so degraded cache keys stay deterministic.
	degradeMaxStates int
	degradeTimeout   time.Duration
}

func (c serverConfig) withDefaults() serverConfig {
	if c.workers <= 0 {
		c.workers = 4
	}
	if c.maxInflight <= 0 {
		c.maxInflight = 64
	}
	if c.queueDepth <= 0 {
		c.queueDepth = 256
	}
	if c.retryAfterMax <= 0 {
		c.retryAfterMax = 30 * time.Second
	}
	if c.degradeMaxStates == 0 {
		c.degradeMaxStates = 20000
	}
	if c.degradeTimeout == 0 {
		c.degradeTimeout = 250 * time.Millisecond
	}
	return c
}

// serverStats are the service counters behind GET /v1/stats — each one
// a registry counter, so /metrics exposes the same registers without
// double bookkeeping.
type serverStats struct {
	Requests    obs.Counter
	Rejected    obs.Counter
	ParseErrors obs.Counter
	Unavailable obs.Counter
	Cancelled   obs.Counter
	CacheHits   obs.Counter
	CacheMisses obs.Counter
	Decided     obs.Counter
	Violations  obs.Counter
	Undecided   obs.Counter
	// Overload and robustness counters (PR 8). Shed counts requests
	// rejected because their deadline could not survive the queue;
	// DeadlineExpired counts 504s (deadline gone before or during
	// processing); ExpiredDrops counts shards discarded at dequeue with an
	// already-dead context; Degraded counts browned-out requests; Panics
	// and WorkerPanics count recovered panics in handlers and fleet
	// workers; Solves counts actual solver invocations — the register the
	// never-burn-a-worker guarantee is pinned against.
	Shed            obs.Counter
	DeadlineExpired obs.Counter
	ExpiredDrops    obs.Counter
	Degraded        obs.Counter
	Panics          obs.Counter
	WorkerPanics    obs.Counter
	Solves          obs.Counter
	// BatchedSolves counts addresses answered through the pooled batch
	// driver (PR 10): a request's burst of litmus-sized addresses rides
	// one fleet shard through coherence.SolveBatch instead of one shard
	// each.
	BatchedSolves obs.Counter
}

// stageNames are the request stages with latency histograms: parse
// (body read + trace parse), cache (result-cache lookup), queue (shard
// wait for a fleet worker), solve (per-shard search compute), merge
// (per-address verdict aggregation). Queue and solve record one sample
// per shard; the others one per request.
var stageNames = []string{"parse", "cache", "queue", "solve", "merge"}

// Server is the memverifyd verification service: a bounded worker fleet
// draining a shard queue, an admission semaphore providing backpressure,
// a fingerprint-keyed result cache, and a telemetry surface — stage
// latency histograms and live gauges at /metrics, request traces with
// ids, and in-flight/slowest request tables at /debug/requests.
type Server struct {
	cfg      serverConfig
	queue    chan func()
	inflight chan struct{}
	cache    *resultCache
	stats    serverStats
	mux      *http.ServeMux
	// root is the served handler: the recovery middleware wrapped
	// around the mux.
	root http.Handler
	stop chan struct{}
	wg   sync.WaitGroup
	// closeMu orders enqueue against Close's final drain: enqueue holds
	// the read side across its shutdown check and queue send, so once
	// Close acquires the write side no shard can slip into the queue
	// after the drain that would have caught it.
	closeMu sync.RWMutex

	// Telemetry: the metric registry behind GET /metrics, per-stage
	// latency histograms, the whole-request histogram, the live
	// worker-busy count, the request table, and the optional tracer.
	reg         *obs.Registry
	stage       map[string]*obs.Histogram
	reqHist     *obs.Histogram
	workersBusy atomic.Int64
	reqs        *requestTable
	tracer      *obs.Tracer

	// Overload control: the drain-rate estimator behind adaptive
	// Retry-After and deadline-aware shedding, the brownout controller
	// (nil when disabled), and the shard-completion counter the drain
	// ticker differentiates.
	drain           *drainRate
	brown           *brownout
	completedShards atomic.Int64

	// searchWorkersEff tracks the peak effective parallel-search team
	// observed on any single address solve — the gauge behind
	// memverifyd_search_workers_effective and /v1/stats.
	searchWorkersEff atomic.Int64

	// faults injects faults into the request path for the chaos tests.
	// It is nil in production, and every call site checks for nil.
	faults faultHook
}

// faultHook is how a test injects faults into a request: a forced
// degrade, a cache miss, and a panic or stall on the fleet worker. It
// reads the fault a request carries from the request's context.
type faultHook interface {
	// degradeReason is why the request must be served degraded, or ""
	// when it need not be.
	degradeReason(ctx context.Context) string
	// missCache reports whether the request carries a fault on its solve
	// path, which a cache hit would skip.
	missCache(ctx context.Context) bool
	// beforeSolve runs on a fleet worker, inside runProtected's recover,
	// before each solve; it may panic or stall.
	beforeSolve(ctx context.Context)
}

// newServer builds the service and starts its worker fleet.
func newServer(cfg serverConfig) *Server {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	s := &Server{
		cfg:      cfg,
		queue:    make(chan func(), cfg.queueDepth),
		inflight: make(chan struct{}, cfg.maxInflight),
		cache:    newResultCache(cfg.cacheSize),
		mux:      http.NewServeMux(),
		stop:     make(chan struct{}),
		reg:      reg,
		stage:    make(map[string]*obs.Histogram, len(stageNames)),
		reqs:     newRequestTable(cfg.slowRequests),
		tracer:   obs.NewTracer(cfg.traceSink),
		drain:    &drainRate{},
		brown:    newBrownout(cfg.brownoutHigh, cfg.brownoutLow, cfg.brownoutHold),
	}

	// Registry: stage and request latency histograms, service counters,
	// live saturation gauges, and the search counters every request's
	// solvers flush into. The service counters double as the /v1/stats
	// payload, so both surfaces read the same registers.
	reg.Search() // listed from boot, not from the first solve
	reg.SetHelp("memverifyd_stage_duration_seconds",
		"Request latency by stage: parse, cache, queue (per shard), solve (per shard), merge.")
	for _, st := range stageNames {
		s.stage[st] = reg.Histogram("memverifyd_stage_duration_seconds", obs.Label{Key: "stage", Value: st})
	}
	reg.SetHelp("memverifyd_request_duration_seconds", "End-to-end /v1/verify latency.")
	s.reqHist = reg.Histogram("memverifyd_request_duration_seconds")
	s.stats = serverStats{
		Requests:    reg.Counter("memverifyd_requests_total"),
		Rejected:    reg.Counter("memverifyd_rejected_total"),
		ParseErrors: reg.Counter("memverifyd_parse_errors_total"),
		Unavailable: reg.Counter("memverifyd_unavailable_total"),
		Cancelled:   reg.Counter("memverifyd_cancelled_total"),
		CacheHits:   reg.Counter("memverifyd_cache_hits_total"),
		CacheMisses: reg.Counter("memverifyd_cache_misses_total"),
		Decided:     reg.Counter("memverifyd_decided_total"),
		Violations:  reg.Counter("memverifyd_violations_total"),
		Undecided:   reg.Counter("memverifyd_undecided_total"),

		Shed:            reg.Counter("memverifyd_shed_total"),
		DeadlineExpired: reg.Counter("memverifyd_deadline_expired_total"),
		ExpiredDrops:    reg.Counter("memverifyd_expired_drops_total"),
		Degraded:        reg.Counter("memverifyd_degraded_total"),
		Panics:          reg.Counter("memverifyd_panics_total"),
		WorkerPanics:    reg.Counter("memverifyd_worker_panics_total"),
		Solves:          reg.Counter("memverifyd_solves_total"),
		BatchedSolves:   reg.Counter("memverifyd_batched_solves_total"),
	}
	reg.SetHelp("memverifyd_shed_total",
		"Requests rejected because their deadline could not survive the estimated queue wait.")
	reg.SetHelp("memverifyd_deadline_expired_total", "Requests answered 504: deadline expired.")
	reg.SetHelp("memverifyd_expired_drops_total",
		"Shards discarded at dequeue because their request's context was already dead.")
	reg.SetHelp("memverifyd_degraded_total", "Requests served in brownout (their own strategy under shrunken budgets).")
	reg.SetHelp("memverifyd_panics_total", "Handler panics recovered by the HTTP middleware.")
	reg.SetHelp("memverifyd_worker_panics_total", "Fleet worker panics recovered mid-shard.")
	reg.SetHelp("memverifyd_solves_total", "Solver invocations actually started on fleet workers.")
	reg.SetHelp("memverifyd_batched_solves_total",
		"Addresses answered through the pooled batch driver (one fleet shard per burst of small addresses).")
	reg.SetHelp("memverifyd_queue_depth", "Shards waiting in the fleet queue.")
	reg.GaugeFunc("memverifyd_queue_depth", func() float64 { return float64(len(s.queue)) })
	reg.SetHelp("memverifyd_in_flight", "Admitted requests not yet answered.")
	reg.GaugeFunc("memverifyd_in_flight", func() float64 { return float64(len(s.inflight)) })
	reg.SetHelp("memverifyd_workers_busy", "Fleet workers currently running a shard.")
	reg.GaugeFunc("memverifyd_workers_busy", func() float64 { return float64(s.workersBusy.Load()) })
	reg.SetHelp("memverifyd_worker_utilization", "workers_busy / workers, 0..1.")
	reg.GaugeFunc("memverifyd_worker_utilization", func() float64 {
		return float64(s.workersBusy.Load()) / float64(cfg.workers)
	})
	reg.SetHelp("memverifyd_workers", "Configured fleet size.")
	reg.Gauge("memverifyd_workers").Set(int64(cfg.workers))
	reg.SetHelp("memverifyd_search_workers", "Configured per-solve parallel-search team size (-psearch; 0/1 = sequential).")
	reg.Gauge("memverifyd_search_workers").Set(int64(cfg.psearch))
	reg.SetHelp("memverifyd_search_workers_effective",
		"Peak parallel-search workers actually engaged on any single address solve.")
	reg.GaugeFunc("memverifyd_search_workers_effective", func() float64 {
		return float64(s.searchWorkersEff.Load())
	})
	reg.SetHelp("memverifyd_cache_len", "Result-cache entries.")
	reg.GaugeFunc("memverifyd_cache_len", func() float64 { return float64(s.cache.len()) })
	reg.SetHelp("memverifyd_brownout_state", "Brownout controller: 0 closed (full service), 1 half-open, 2 open (degrading).")
	reg.GaugeFunc("memverifyd_brownout_state", func() float64 {
		st, _, _ := s.brown.snapshot()
		return float64(st)
	})
	reg.SetHelp("memverifyd_brownout_opens", "Times the brownout controller has opened.")
	reg.GaugeFunc("memverifyd_brownout_opens", func() float64 {
		_, _, opens := s.brown.snapshot()
		return float64(opens)
	})
	reg.SetHelp("memverifyd_queue_delay_ewma_seconds", "Smoothed shard queue delay feeding the brownout controller.")
	reg.GaugeFunc("memverifyd_queue_delay_ewma_seconds", func() float64 {
		_, ewma, _ := s.brown.snapshot()
		return ewma.Seconds()
	})
	reg.SetHelp("memverifyd_drain_rate", "Estimated fleet drain rate in shards/sec (0 until the estimator warms).")
	reg.GaugeFunc("memverifyd_drain_rate", func() float64 {
		rate, warm := s.drain.estimate()
		if !warm {
			return 0
		}
		return rate
	})

	s.mux.HandleFunc("/v1/verify", s.handleVerify)
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.Handle("/metrics", obs.PromHandler(reg))
	s.mux.HandleFunc("/debug/requests", s.handleDebugRequests)
	s.mux.Handle("/debug/", obs.DebugHandler(reg))
	s.root = s.recoveryMiddleware(s.mux)
	for i := 0; i < cfg.workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				select {
				case fn := <-s.queue:
					s.runShard(fn)
				case <-s.stop:
					return
				}
			}
		}()
	}
	// Drain ticker: differentiates the shard-completion counter into the
	// drain-rate EWMA, and decays the brownout EWMA when the fleet goes
	// idle — without this an overloaded-then-silent server would stay
	// browned out forever, because only dequeues feed the controller.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(drainTick)
		defer t.Stop()
		last := time.Now()
		var seen int64
		for {
			select {
			case now := <-t.C:
				done := s.completedShards.Load()
				s.drain.tick(done-seen, now.Sub(last))
				if done == seen && len(s.queue) == 0 && s.workersBusy.Load() == 0 {
					s.brown.observe(0)
				}
				seen, last = done, now
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// runShard executes one queued shard, tracking fleet utilization. The
// recover is a backstop: shard closures recover their own panics (so
// the error lands in the request's merge), but if one ever escapes the
// worker survives and the fleet keeps its size.
func (s *Server) runShard(fn func()) {
	s.workersBusy.Add(1)
	defer func() {
		s.workersBusy.Add(-1)
		if rec := recover(); rec != nil {
			s.stats.WorkerPanics.Inc()
		}
	}()
	fn()
}

// Close stops the worker fleet (idempotent is not needed; call once).
// Shards that slipped into the queue while shutdown raced an enqueue
// are run inline afterwards, so no handler is left waiting on work the
// dead fleet will never do.
func (s *Server) Close() {
	close(s.stop)
	s.wg.Wait()
	// In-flight enqueues finish promptly now that stop is closed; taking
	// the write lock waits them out, so the drain below sees every shard
	// that made it into the queue.
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	for {
		select {
		case fn := <-s.queue:
			s.runShard(fn)
		default:
			return
		}
	}
}

// Handler returns the service's HTTP handler (middleware included).
func (s *Server) Handler() http.Handler { return s.root }

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

// errShuttingDown marks enqueue failures caused by server shutdown, so
// handlers can answer 503 instead of blaming the client.
var errShuttingDown = errors.New("server shutting down")

// enqueue hands one shard to the fleet, giving up when the request is
// gone. Handlers block here when the queue is full — which is safe and
// bounded: only admitted requests reach this point and workers never
// enqueue, so there is no cycle to deadlock.
func (s *Server) enqueue(ctx context.Context, fn func()) error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	// Check shutdown first, on its own: in the combined select below a
	// buffered queue send and the closed stop channel are both ready and
	// select picks between them at random, which would strand work in a
	// queue the dead fleet never drains.
	select {
	case <-s.stop:
		return errShuttingDown
	default:
	}
	select {
	case s.queue <- fn:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-s.stop:
		return errShuttingDown
	}
}

// enqueueTimed is enqueue plus stage telemetry: the shard's wait from
// enqueue to execution is recorded as queue time, the body itself as
// solve time — per shard, into both the request's timings and the
// stage histograms.
func (s *Server) enqueueTimed(ctx context.Context, tm *reqTimings, body func()) error {
	enqueued := time.Now()
	return s.enqueue(ctx, func() {
		wait := time.Since(enqueued)
		tm.addQueue(wait)
		s.stage["queue"].Observe(int64(wait))
		// Every dequeue feeds the brownout controller its queue delay —
		// the saturation signal degradation decisions run on.
		s.brown.observe(wait)
		t0 := time.Now()
		body()
		d := time.Since(t0)
		tm.addSolve(d)
		s.stage["solve"].Observe(int64(d))
		s.completedShards.Add(1)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "workers": s.cfg.workers})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	bstate, ewma, opens := s.brown.snapshot()
	rate, warm := s.drain.estimate()
	stats := map[string]any{
		"requests":     s.stats.Requests.Value(),
		"rejected":     s.stats.Rejected.Value(),
		"parse_errors": s.stats.ParseErrors.Value(),
		"unavailable":  s.stats.Unavailable.Value(),
		"cancelled":    s.stats.Cancelled.Value(),
		"cache_hits":   s.stats.CacheHits.Value(),
		"cache_misses": s.stats.CacheMisses.Value(),
		"cache_len":    s.cache.len(),
		"decided":      s.stats.Decided.Value(),
		"violations":   s.stats.Violations.Value(),
		"undecided":    s.stats.Undecided.Value(),
		"queue_depth":  len(s.queue),
		"in_flight":    len(s.inflight),
		"workers_busy": s.workersBusy.Load(),
		"workers":      s.cfg.workers,

		"shed":             s.stats.Shed.Value(),
		"deadline_expired": s.stats.DeadlineExpired.Value(),
		"expired_drops":    s.stats.ExpiredDrops.Value(),
		"degraded":         s.stats.Degraded.Value(),
		"panics":           s.stats.Panics.Value(),
		"worker_panics":    s.stats.WorkerPanics.Value(),
		"solves":           s.stats.Solves.Value(),
		"batched_solves":   s.stats.BatchedSolves.Value(),

		"search_workers":           s.cfg.psearch,
		"search_workers_effective": s.searchWorkersEff.Load(),
		"brownout_state":           bstate.String(),
		"brownout_opens":           opens,
		"queue_delay_ewma_ms":      float64(ewma) / float64(time.Millisecond),
		"drain_warm":               warm,
		"drain_rate":               rate,
	}
	writeJSON(w, http.StatusOK, stats)
}

// handleDebugRequests serves GET /debug/requests: the in-flight request
// table (id, age, current stage) and the slowest completed requests
// with their stage breakdowns.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	inflight, slowest := s.reqs.snapshot()
	bstate, ewma, opens := s.brown.snapshot()
	rate, warm := s.drain.estimate()
	writeJSON(w, http.StatusOK, map[string]any{
		"in_flight": inflight,
		"slowest":   slowest,
		"overload": map[string]any{
			"brownout_state":      bstate.String(),
			"brownout_opens":      opens,
			"queue_delay_ewma_ms": float64(ewma) / float64(time.Millisecond),
			"drain_warm":          warm,
			"drain_rate":          rate,
			"shed":                s.stats.Shed.Value(),
			"degraded":            s.stats.Degraded.Value(),
		},
	})
}

// handleVerify is POST /v1/verify.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	s.stats.Requests.Inc()
	// Deadline propagation: the client's remaining budget arrives as
	// X-Deadline-Ms (or as deadline_ms in the JSON envelope, applied
	// after parse). A request that arrives already expired is answered
	// 504 before any work.
	deadline, err := deadlineFrom(r)
	if err != nil {
		s.stats.ParseErrors.Inc()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		s.stats.DeadlineExpired.Inc()
		writeError(w, http.StatusGatewayTimeout, "deadline expired before processing")
		return
	}
	// Deadline-aware shedding: if the estimated queue wait already
	// exceeds the request's remaining budget, admitting it only burns a
	// worker on an answer nobody will read — shed it now with honest
	// backpressure instead.
	if !deadline.IsZero() {
		if rate, warm := s.drain.estimate(); warm && rate > 0 {
			estWait := time.Duration(float64(len(s.queue)) / rate * float64(time.Second))
			if estWait > time.Until(deadline) {
				s.stats.Shed.Inc()
				s.stats.Rejected.Inc()
				w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs(len(s.queue), rate, warm, s.cfg.retryAfterMax)))
				writeError(w, http.StatusTooManyRequests,
					"shed: estimated queue wait %v exceeds request deadline", estWait.Round(time.Millisecond))
				return
			}
		}
	}
	// Admission: the semaphore is the bounded ingest queue. A full
	// server answers immediately with backpressure instead of buffering
	// unbounded work — and the Retry-After it quotes is the estimated
	// time to drain the current queue, not a constant.
	select {
	case s.inflight <- struct{}{}:
	default:
		s.stats.Rejected.Inc()
		rate, warm := s.drain.estimate()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs(len(s.queue), rate, warm, s.cfg.retryAfterMax)))
		writeError(w, http.StatusTooManyRequests, "server at capacity (%d in flight)", s.cfg.maxInflight)
		return
	}
	defer func() { <-s.inflight }()

	// Request identity: echoed in the response header, stamped onto
	// every obs span begun under this request's context, and the key of
	// the in-flight table entry.
	reqID := newRequestID(r)
	w.Header().Set("X-Request-ID", reqID)
	live := s.reqs.start(reqID, r.RemoteAddr)
	start := time.Now()
	tm := &reqTimings{}
	outcome := "error"
	defer func() {
		total := time.Since(start)
		s.reqHist.Observe(int64(total))
		// Per-request stages fold into the histograms once, at the end;
		// a stage that never ran (merge on a cache hit) stays out.
		for st, ns := range map[string]int64{
			"parse": tm.parse.Load(), "cache": tm.cache.Load(), "merge": tm.merge.Load(),
		} {
			if ns > 0 {
				s.stage[st].Observe(ns)
			}
		}
		s.reqs.finish(live, outcome, tm.debugMap(total))
	}()

	ctx := obs.WithRequestID(r.Context(), reqID)
	ctx = obs.With(ctx, &obs.Observer{Tracer: s.tracer, Registry: s.reg})
	span, ctx := s.tracer.Begin(ctx, "request")
	defer func() { span.End(outcome, 0) }()

	t0 := time.Now()
	req, err := readVerifyRequest(r)
	tm.addParse(time.Since(t0))
	if err != nil {
		s.stats.ParseErrors.Inc()
		outcome = "parse_error"
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if deadline.IsZero() && req.DeadlineMS > 0 {
		// The JSON envelope can carry the deadline too; the header wins
		// when both are present (it was visible before the body).
		deadline = start.Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	if !deadline.IsZero() {
		// The deadline rides the context: solver budgets compose with it
		// (a search cut short reports an undecided budget trip), and
		// shards still queued when it passes are dropped at dequeue.
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	resp, status, err := s.verify(ctx, req, tm, live)
	if r.Context().Err() != nil {
		// Client went away; the searches were cancelled through the
		// context (a cancelled search reports as an undecided budget
		// trip, so check the context before interpreting the outcome).
		// Nothing to write.
		s.stats.Cancelled.Inc()
		outcome = "cancelled"
		return
	}
	if err != nil {
		// 5xx means the server could not finish the work (shutdown,
		// worker panic, expired deadline); only 4xx counts against the
		// client as a parse/validation error.
		switch {
		case status == http.StatusGatewayTimeout:
			s.stats.DeadlineExpired.Inc()
			outcome = "deadline_expired"
		case status >= http.StatusInternalServerError:
			s.stats.Unavailable.Inc()
			outcome = "unavailable"
		default:
			s.stats.ParseErrors.Inc()
			outcome = "parse_error"
		}
		writeError(w, status, "%v", err)
		return
	}
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	resp.RequestID = reqID
	if r.URL.Query().Get("debug") == "timings" {
		resp.Timings = tm.debugMap(time.Since(start))
	}
	outcome = resp.Verdict
	switch resp.Verdict {
	case "undecided":
		s.stats.Undecided.Inc()
	case "incoherent", "inconsistent":
		s.stats.Decided.Inc()
		s.stats.Violations.Inc()
	default:
		s.stats.Decided.Inc()
	}
	writeJSON(w, http.StatusOK, resp)
}

// budgetFor clamps the request budget to the server ceilings.
func (s *Server) budgetFor(req *VerifyRequest) (int, time.Duration) {
	maxStates := req.MaxStates
	if maxStates == 0 {
		maxStates = s.cfg.maxStatesDefault
	}
	if cap := s.cfg.maxStatesCap; cap > 0 && (maxStates == 0 || maxStates > cap) {
		maxStates = cap
	}
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	if timeout == 0 {
		timeout = s.cfg.timeoutDefault
	}
	if cap := s.cfg.timeoutCap; cap > 0 && (timeout == 0 || timeout > cap) {
		timeout = cap
	}
	return maxStates, timeout
}

// verify parses, consults the cache, runs the verification on the
// fleet, and caches decided answers. The returned int is the HTTP
// status for a non-nil error.
func (s *Server) verify(ctx context.Context, req *VerifyRequest, tm *reqTimings, live *liveReq) (*VerifyResponse, int, error) {
	t0 := time.Now()
	model, err := consistency.ParseModel(orDefault(req.Model, "coherence"))
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	strategy, err := solver.ParseStrategy(req.Strategy)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	s.reqs.setModel(live, model.String())
	tr, err := trace.Read(strings.NewReader(req.Trace))
	tm.addParse(time.Since(t0))
	if err != nil {
		return nil, http.StatusBadRequest, err
	}

	s.reqs.setStage(live, "cache")
	maxStates, timeout := s.budgetFor(req)
	// Brownout: a degraded request trades fidelity for latency — it runs
	// its own strategy under budgets shrunk to fixed degraded values, so
	// a degraded answer differs from a full one only by budget, and a
	// trip answers undecided like any other. Applied before the cache
	// key is built, so degraded answers live under their own
	// (deterministic) keys and never pollute full-fidelity entries.
	degraded, degradeReason := s.degradeFor(ctx)
	if degraded {
		s.stats.Degraded.Inc()
		if n := s.cfg.degradeMaxStates; n > 0 && (maxStates == 0 || maxStates > n) {
			maxStates = n
		}
		if d := s.cfg.degradeTimeout; d > 0 && (timeout == 0 || timeout > d) {
			timeout = d
		}
	}
	key := cacheKey(coherence.ExecutionFingerprint(tr.Exec), model.String(), strategy.String(),
		maxStates, timeout, req.UseOrder, tr.WriteOrders)
	// An injected fault on the solve path (a test's worker panic or slow
	// solve) must reach a fleet worker, so the request misses the cache
	// instead of letting the fault dissolve on a hit. The verdict is
	// unchanged and still cached afterwards: the fault alters how this
	// request is served, not what the answer is.
	bypassCache := s.faults != nil && s.faults.missCache(ctx)
	t0 = time.Now()
	resp, ok := s.cache.get(key)
	tm.addCache(time.Since(t0))
	if ok && !bypassCache {
		s.stats.CacheHits.Inc()
		resp.Cached = true
		if degraded {
			resp.Degraded, resp.DegradeReason = true, degradeReason
		}
		return &resp, 0, nil
	}
	s.stats.CacheMisses.Inc()

	cfgOpts := []solver.ConfigOption{
		solver.WithStrategy(strategy),
		solver.WithBudget(solver.WithMaxStates(maxStates), solver.WithTimeout(timeout)),
	}
	if req.UseOrder {
		cfgOpts = append(cfgOpts, solver.WithWriteOrders(tr.WriteOrders))
	}

	s.reqs.setStage(live, "solve")
	var out *VerifyResponse
	if model == consistency.CoherenceOnly {
		out, err = s.verifyCoherenceSharded(ctx, tr, cfgOpts, tm, live)
	} else {
		out, err = s.verifyConsistency(ctx, model, tr, cfgOpts, tm)
	}
	if err != nil {
		switch {
		case errors.Is(err, errShuttingDown):
			return nil, http.StatusServiceUnavailable, err
		case errors.Is(err, context.DeadlineExceeded):
			return nil, http.StatusGatewayTimeout, err
		case errors.Is(err, errWorkerPanic):
			return nil, http.StatusInternalServerError, err
		default:
			return nil, http.StatusBadRequest, err
		}
	}
	out.Model = model.String()
	out.Strategy = strategy.String()
	if out.Verdict != "undecided" {
		s.cache.put(key, *out)
	}
	if degraded {
		// Set after the cache put: the stored entry is keyed by the
		// degraded knobs but the flag is about how *this* request was
		// served, not a property of the verdict.
		out.Degraded, out.DegradeReason = true, degradeReason
	}
	return out, 0, nil
}

// degradeFor decides whether this request is served degraded: either
// the brownout controller is open, or an injected fault forced the path
// (so a test exercises the degraded response shape deterministically).
func (s *Server) degradeFor(ctx context.Context) (bool, string) {
	if s.faults != nil {
		if reason := s.faults.degradeReason(ctx); reason != "" {
			return true, reason
		}
	}
	if s.brown.degrading() {
		_, ewma, _ := s.brown.snapshot()
		return true, fmt.Sprintf("brownout: queue delay EWMA %v over threshold %v",
			ewma.Round(time.Millisecond), s.cfg.brownoutHigh)
	}
	return false, ""
}

// errWorkerPanic marks a request whose shard panicked on a fleet
// worker; the panic is recovered and surfaces as a plain 500.
var errWorkerPanic = errors.New("worker panic")

// runProtected is the robustness prologue of every fleet task: drop the
// work if the request's context died while it sat in the queue (never
// burn a worker on an expired deadline), run the fault hook when a test
// installed one, and recover panics into an error so one bad shard
// fails one request instead of a fleet goroutine.
func (s *Server) runProtected(ctx context.Context, run func() error) (err error) {
	if cerr := ctx.Err(); cerr != nil {
		s.stats.ExpiredDrops.Inc()
		return cerr
	}
	defer func() {
		if rec := recover(); rec != nil {
			s.stats.WorkerPanics.Inc()
			err = fmt.Errorf("%w: %v", errWorkerPanic, rec)
		}
	}()
	if s.faults != nil {
		s.faults.beforeSolve(ctx)
	}
	s.stats.Solves.Inc()
	return run()
}

// batchMaxOps / batchMinAddrs bound the server's batch plan: an address
// joins the batch when it has at most batchMaxOps memory operations, and
// the batch forms only when at least batchMinAddrs qualify (batching a
// single address just adds indirection to a normal shard).
const (
	batchMaxOps   = 32
	batchMinAddrs = 2
)

// planShards orders the request's checked addresses largest projection
// first, ties by ascending address — LPT order: the potentially
// exponential searches start before a tail of trivial addresses instead
// of queueing behind it — and marks which of them ride the pooled batch
// driver. One pass counts every address's memory operations; an address
// that only declares a final value has size 0 and is kept.
// coherence.SolveBatch climbs the same escalation ladder as SolveAddr
// under every strategy, so only an address's size decides its shard.
func planShards(exec *memory.Execution) (addrs []memory.Addr, inBatch []bool) {
	addrs = exec.CheckedAddresses()
	sizes := make(map[memory.Addr]int, len(addrs))
	for _, h := range exec.Histories {
		for _, o := range h {
			if o.IsMemory() {
				sizes[o.Addr]++
			}
		}
	}
	slices.SortFunc(addrs, func(x, y memory.Addr) int {
		if c := cmp.Compare(sizes[y], sizes[x]); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	inBatch = make([]bool, len(addrs))
	n := 0
	for i, a := range addrs {
		if sizes[a] <= batchMaxOps {
			inBatch[i] = true
			n++
		}
	}
	if n < batchMinAddrs {
		clear(inBatch)
	}
	return addrs, inBatch
}

// verifyCoherenceSharded fans the per-address VMC checks of one request
// out over the shared worker fleet, largest projection first
// (planShards), so one hot request cannot monopolize the fleet against
// concurrent small ones. The request's litmus-sized addresses are
// solved as a single fleet shard through the pooled batch driver, and
// with -psearch the hardest address splits its search across a worker
// team sharing one memo table.
func (s *Server) verifyCoherenceSharded(ctx context.Context, tr *trace.Trace, cfgOpts []solver.ConfigOption, tm *reqTimings, live *liveReq) (*VerifyResponse, error) {
	v := coherence.NewVerifier(cfgOpts...)
	addrs, inBatch := planShards(tr.Exec)
	reports := make([]*coherence.AddrReport, len(addrs))
	errs := make([]error, len(addrs))

	// The team verifier is used for the hardest shard only (addrs[0], the
	// LPT head): giving every shard a team would multiply the request's
	// fleet footprint by the team size for no wall-clock gain.
	vTeam := v
	if s.cfg.psearch > 1 {
		team := append(append([]solver.ConfigOption{}, cfgOpts...),
			solver.WithBudget(solver.WithParallelSearch(s.cfg.psearch)))
		vTeam = coherence.NewVerifier(team...)
	}

	var wg sync.WaitGroup
	enqueueFailed := false
	if batchIdx := indicesOf(inBatch); len(batchIdx) > 0 {
		jobs := make([]coherence.BatchJob, len(batchIdx))
		for j, i := range batchIdx {
			jobs[j] = coherence.BatchJob{Exec: tr.Exec, Addr: addrs[i]}
		}
		wg.Add(1)
		if err := s.enqueueTimed(ctx, tm, func() {
			defer wg.Done()
			berr := s.runProtected(ctx, func() error {
				res := v.SolveBatch(ctx, jobs)
				for j, i := range batchIdx {
					if res[j].Err != nil {
						errs[i] = res[j].Err
					} else {
						reports[i] = &res[j].AddrReport
					}
				}
				s.stats.BatchedSolves.Add(int64(len(jobs)))
				return nil
			})
			if berr != nil {
				// Panic or expired-at-dequeue: every batched address the
				// driver did not answer fails with the shard's error.
				for _, i := range batchIdx {
					if errs[i] == nil && reports[i] == nil {
						errs[i] = berr
					}
				}
			}
		}); err != nil {
			wg.Done()
			for _, i := range batchIdx {
				errs[i] = err
			}
			enqueueFailed = true
		}
	}
	for i, a := range addrs {
		if inBatch[i] || enqueueFailed {
			continue
		}
		i, a := i, a
		sv := v
		if i == 0 {
			sv = vTeam
		}
		wg.Add(1)
		if err := s.enqueueTimed(ctx, tm, func() {
			defer wg.Done()
			errs[i] = s.runProtected(ctx, func() error {
				var serr error
				reports[i], serr = sv.SolveAddr(ctx, tr.Exec, a)
				return serr
			})
		}); err != nil {
			wg.Done()
			// The request is gone; shards already queued notice the
			// cancelled context and return quickly.
			errs[i] = err
			break
		}
	}
	wg.Wait()

	s.reqs.setStage(live, "merge")
	t0 := time.Now()
	defer func() { tm.addMerge(time.Since(t0)) }()
	resp := &VerifyResponse{Verdict: "coherent"}
	var agg solver.Stats
	var budget *solver.ErrBudgetExceeded
	// Report in address order: the shard slots sorted by their address.
	slots := make([]int, len(addrs))
	for i := range slots {
		slots[i] = i
	}
	slices.SortFunc(slots, func(x, y int) int { return cmp.Compare(addrs[x], addrs[y]) })
	for _, i := range slots {
		a := addrs[i]
		if errs[i] != nil {
			be, ok := solver.AsBudgetError(errs[i])
			if !ok {
				return nil, errs[i]
			}
			if budget == nil {
				budget = be
			}
			agg.Merge(be.Stats)
			resp.Addrs = append(resp.Addrs, AddrResult{Addr: tr.Name(a), Verdict: "unknown"})
			continue
		}
		ar := reports[i]
		if ar == nil {
			continue
		}
		agg.Merge(ar.Stats)
		out := AddrResult{Addr: tr.Name(a), Verdict: "unknown", States: ar.Stats.States}
		if ar.Result != nil {
			out.Algorithm = ar.Result.Algorithm
		}
		if w := ar.Stats.SearchWorkers; w > 1 {
			// Effective search parallelism: workers that actually engaged
			// on this address's parallel search (psearch teams only).
			out.Workers = w
			atomicMax(&s.searchWorkersEff, int64(w))
		}
		switch ar.Verdict {
		case coherence.VerdictCoherent:
			out.Verdict = "coherent"
		case coherence.VerdictIncoherent:
			out.Verdict = "incoherent"
			if resp.Violation == "" {
				resp.Violation = tr.Name(a)
			}
			resp.Verdict = "incoherent"
		default:
			if resp.Verdict == "coherent" {
				resp.Verdict = "undecided"
				resp.Reason = "resilient ladder exhausted"
			}
		}
		resp.Addrs = append(resp.Addrs, out)
	}
	if budget != nil && resp.Verdict == "coherent" {
		resp.Verdict = "undecided"
		resp.Reason = budget.Reason.String()
	}
	resp.Stats = statsJSON(agg)
	return resp, nil
}

// verifyConsistency runs a whole-execution model as a single fleet
// task: the SC/VSCC searches and the operational machines are one
// search over all addresses, so there is nothing to shard.
func (s *Server) verifyConsistency(ctx context.Context, model consistency.Model, tr *trace.Trace, cfgOpts []solver.ConfigOption, tm *reqTimings) (*VerifyResponse, error) {
	v := consistency.NewVerifier(model, cfgOpts...)
	var (
		res *consistency.Result
		err error
		wg  sync.WaitGroup
	)
	wg.Add(1)
	if qerr := s.enqueueTimed(ctx, tm, func() {
		defer wg.Done()
		err = s.runProtected(ctx, func() error {
			var verr error
			res, verr = v.Verify(ctx, tr.Exec)
			return verr
		})
	}); qerr != nil {
		wg.Done()
		return nil, qerr
	}
	wg.Wait()
	if err != nil {
		if be, ok := solver.AsBudgetError(err); ok {
			return &VerifyResponse{
				Verdict: "undecided",
				Reason:  be.Reason.String(),
				Stats:   statsJSON(be.Stats),
			}, nil
		}
		return nil, err
	}
	resp := &VerifyResponse{Verdict: "consistent", Algorithm: res.Algorithm, Stats: statsJSON(res.Stats)}
	if !res.Consistent {
		resp.Verdict = "inconsistent"
	}
	return resp, nil
}

// indicesOf returns the indices whose mark is set.
func indicesOf(marks []bool) []int {
	var out []int
	for i, m := range marks {
		if m {
			out = append(out, i)
		}
	}
	return out
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
