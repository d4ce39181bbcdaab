package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memverify/internal/client"
	"memverify/internal/obs"
	"memverify/internal/trace"
	"memverify/internal/workload"
)

// --- overload-control units -------------------------------------------

func TestRetryAfterSecs(t *testing.T) {
	const max = 30 * time.Second
	for name, tc := range map[string]struct {
		queued int
		rate   float64
		warm   bool
		max    time.Duration
		want   int
	}{
		"cold estimator answers the floor":   {queued: 100, rate: 0, warm: false, max: max, want: 1},
		"empty queue fast drain floors at 1": {queued: 0, rate: 1000, warm: true, max: max, want: 1},
		"queued work divided by drain rate":  {queued: 10, rate: 2, warm: true, max: max, want: 6}, // ceil(11/2)
		"clamped to the cap":                 {queued: 1000, rate: 1, warm: true, max: 5 * time.Second, want: 5},
		"zero rate while warm floors at 1":   {queued: 5, rate: 0, warm: true, max: max, want: 1},
	} {
		if got := retryAfterSecs(tc.queued, tc.rate, tc.warm, tc.max); got != tc.want {
			t.Errorf("%s: retryAfterSecs = %d, want %d", name, got, tc.want)
		}
	}
}

// TestDrainRateColdStart pins the estimator's cold-start contract: it
// reports not-warm (so Retry-After falls back to the 1s floor, never a
// division by a made-up rate) until the first window that actually saw
// a completion.
func TestDrainRateColdStart(t *testing.T) {
	d := &drainRate{}
	if _, warm := d.estimate(); warm {
		t.Fatal("fresh estimator claims to be warm")
	}
	// Idle windows must not warm it up (0/dt is a rate, but a lie).
	for i := 0; i < 5; i++ {
		d.tick(0, time.Second)
	}
	if _, warm := d.estimate(); warm {
		t.Fatal("idle windows warmed the estimator")
	}
	d.tick(8, time.Second)
	rate, warm := d.estimate()
	if !warm || rate != 8 {
		t.Fatalf("first productive window: rate=%v warm=%v, want 8, true", rate, warm)
	}
	// EWMA folds later windows in smoothly.
	d.tick(0, time.Second)
	if rate2, _ := d.estimate(); rate2 >= rate || rate2 <= 0 {
		t.Errorf("EWMA after idle window: %v (was %v)", rate2, rate)
	}
	var nilD *drainRate
	nilD.tick(1, time.Second)
	if _, warm := nilD.estimate(); warm {
		t.Error("nil drainRate claims warm")
	}
}

// TestBrownoutHysteresis walks the controller through its whole cycle:
// closed → open on a high queue-delay EWMA, half-open when the delay
// falls below the low-water mark, reopen on relapse, and closed only
// after hold consecutive calm observations.
func TestBrownoutHysteresis(t *testing.T) {
	b := newBrownout(100*time.Millisecond, 50*time.Millisecond, 3)
	if b.degrading() {
		t.Fatal("fresh controller degrading")
	}
	for i := 0; i < 20 && !b.degrading(); i++ {
		b.observe(300 * time.Millisecond)
	}
	if st, _, opens := b.snapshot(); st != brownOpen || opens != 1 {
		t.Fatalf("after sustained delay: state %v opens %d", st, opens)
	}
	// Falling below low moves to half-open but NOT straight to closed.
	for i := 0; i < 50; i++ {
		b.observe(0)
		if st, _, _ := b.snapshot(); st == brownHalfOpen {
			break
		}
	}
	if st, _, _ := b.snapshot(); st != brownHalfOpen {
		t.Fatalf("EWMA decayed but state %v, want half-open", st)
	}
	if b.degrading() {
		t.Error("half-open still degrading new requests")
	}
	// Relapse while half-open reopens immediately.
	for i := 0; i < 20; i++ {
		b.observe(400 * time.Millisecond)
	}
	if st, _, opens := b.snapshot(); st != brownOpen || opens != 2 {
		t.Fatalf("relapse: state %v opens %d, want open/2", st, opens)
	}
	// Full recovery: below low and hold consecutive calm observations.
	for i := 0; i < 200; i++ {
		b.observe(0)
		if st, _, _ := b.snapshot(); st == brownClosed {
			break
		}
	}
	if st, _, _ := b.snapshot(); st != brownClosed {
		t.Fatalf("never closed after sustained calm: %v", st)
	}
	// Disabled and nil controllers never degrade.
	if newBrownout(0, 0, 0) != nil {
		t.Error("high=0 did not disable the controller")
	}
	var nb *brownout
	nb.observe(time.Hour)
	if nb.degrading() {
		t.Error("nil controller degrading")
	}
}

// --- deadline propagation ---------------------------------------------

// postWithHeaders is postTrace with extra request headers.
func postWithHeaders(t *testing.T, ts *httptest.Server, headers map[string]string, body string) (*http.Response, *VerifyResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/verify", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vr VerifyResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp, &vr
}

// TestDeadlineExpiredNeverSolves pins the tentpole guarantee: a request
// whose deadline expired while it sat in the queue is dropped at
// dequeue and never reaches a solver — counted by the solves register,
// which only increments when a worker actually starts a search.
func TestDeadlineExpiredNeverSolves(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{workers: 1, maxInflight: 8, queueDepth: 8})
	// Expired on arrival: answered 504 before any queueing.
	resp, _ := postWithHeaders(t, ts, map[string]string{"X-Deadline-Ms": "-10"}, coherentTrace)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired-on-arrival status %d, want 504", resp.StatusCode)
	}
	if got := s.stats.Solves.Value(); got != 0 {
		t.Fatalf("expired-on-arrival request reached a solver: solves=%d", got)
	}

	// Expired in the queue: jam the single worker, let the deadline pass
	// while the shard waits, then release the worker. The shard must be
	// discarded at dequeue without a solver invocation.
	block := make(chan struct{})
	s.queue <- func() { <-block }
	time.Sleep(20 * time.Millisecond) // let the worker pick up the blocker

	done := make(chan *http.Response, 1)
	go func() {
		resp, _ := postWithHeaders(t, ts, map[string]string{"X-Deadline-Ms": "50"}, coherentTrace)
		done <- resp
	}()
	time.Sleep(150 * time.Millisecond) // deadline long gone; shard still queued
	close(block)
	resp = <-done
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued-past-deadline status %d, want 504", resp.StatusCode)
	}
	if got := s.stats.Solves.Value(); got != 0 {
		t.Fatalf("expired request burned a worker: solves=%d", got)
	}
	if got := s.stats.ExpiredDrops.Value(); got == 0 {
		t.Error("expired drop not counted")
	}
	if got := s.stats.DeadlineExpired.Value(); got != 2 {
		t.Errorf("deadline_expired counter %d, want 2", got)
	}
	// The service is fully live afterwards.
	resp2, vr := postTrace(t, ts, "", coherentTrace)
	if resp2.StatusCode != http.StatusOK || vr.Verdict != "coherent" {
		t.Errorf("service did not recover: %d %+v", resp2.StatusCode, vr)
	}
}

// TestDeadlineInEnvelope proves the JSON deadline_ms field works when
// the header is absent (and is validated like the other budgets).
func TestDeadlineInEnvelope(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{workers: 2})
	body, _ := json.Marshal(VerifyRequest{Trace: coherentTrace, DeadlineMS: 5000})
	resp, err := http.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("deadline_ms envelope: status %d", resp.StatusCode)
	}
	body, _ = json.Marshal(VerifyRequest{Trace: coherentTrace, DeadlineMS: -1})
	resp, err = http.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative deadline_ms: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postWithHeaders(t, ts, map[string]string{"X-Deadline-Ms": "banana"}, coherentTrace)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage X-Deadline-Ms: status %d, want 400", resp.StatusCode)
	}
}

// --- brownout degradation over HTTP -----------------------------------

// TestBrownoutDegradesRequests drives the controller open with real
// queue delay and proves a browned-out answer carries degraded: true, a
// reason, and the request's own strategy.
func TestBrownoutDegradesRequests(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{
		workers: 1, maxInflight: 8, queueDepth: 16,
		// Any measurable queue wait opens the controller immediately.
		brownoutHigh: time.Nanosecond, brownoutHold: 1000,
	})
	// Prime the queue-delay EWMA: the first request's shards observe a
	// nonzero wait at dequeue, opening the brownout.
	postTrace(t, ts, "", coherentTrace)
	if !s.brown.degrading() {
		t.Fatal("brownout did not open on observed queue delay")
	}
	resp, vr := postWithHeaders(t, ts, nil, incoherentTrace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !vr.Degraded || vr.DegradeReason == "" {
		t.Fatalf("browned-out answer not marked degraded: %+v", vr)
	}
	if !strings.Contains(vr.DegradeReason, "brownout") {
		t.Errorf("degrade reason %q does not name brownout", vr.DegradeReason)
	}
	if got := s.stats.Degraded.Value(); got == 0 {
		t.Error("degraded counter did not move")
	}
	// A degraded request keeps its strategy; only its budget shrinks.
	resp, vr = postWithHeaders(t, ts, nil, coherentTrace+"P2: R x 1\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	_, vr2 := postTrace(t, ts, "?strategy=exact", coherentTrace+"P2: R x 2\n")
	if vr2.Strategy != "exact" || !vr2.Degraded {
		t.Errorf("degraded exact request ran strategy %q (degraded=%v), want exact, degraded", vr2.Strategy, vr2.Degraded)
	}
	// The brownout state is visible on the operational surfaces.
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["brownout_state"] != "open" {
		t.Errorf("stats brownout_state %v, want open", stats["brownout_state"])
	}
	if stats["degraded"].(float64) == 0 {
		t.Error("stats degraded count is zero")
	}
	dresp, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	var dbg struct {
		Overload map[string]any `json:"overload"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	if dbg.Overload["brownout_state"] != "open" {
		t.Errorf("debug overload block: %v", dbg.Overload)
	}
}

// --- panic recovery ----------------------------------------------------

// TestPanicRecoveryMiddleware injects a panicking handler and proves
// the middleware answers 500 JSON, counts it, and the server keeps
// serving.
func TestPanicRecoveryMiddleware(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{workers: 2})
	s.mux.HandleFunc("/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatalf("panicking handler killed the connection: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", resp.StatusCode)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "kaboom") {
		t.Errorf("500 body not the JSON error shape: %v %+v", err, e)
	}
	if got := s.stats.Panics.Value(); got != 1 {
		t.Errorf("panics counter %d, want 1", got)
	}
	// Still serviceable.
	r2, vr := postTrace(t, ts, "", coherentTrace)
	if r2.StatusCode != http.StatusOK || vr.Verdict != "coherent" {
		t.Errorf("server wounded after panic: %d %+v", r2.StatusCode, vr)
	}
}

// --- chaos injection over HTTP ----------------------------------------

func TestChaosHeaderFaults(t *testing.T) {
	s, ts, in := newChaosServer(t, serverConfig{workers: 2}, 50*time.Millisecond)

	t.Run("500", func(t *testing.T) {
		resp, _ := postWithHeaders(t, ts, map[string]string{"X-Chaos-Fault": "500"}, coherentTrace)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("status %d, want 500", resp.StatusCode)
		}
	})
	t.Run("drop", func(t *testing.T) {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/verify", strings.NewReader(coherentTrace))
		req.Header.Set("X-Chaos-Fault", "drop")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			t.Error("dropped connection still answered")
		}
	})
	t.Run("panic", func(t *testing.T) {
		before := s.stats.WorkerPanics.Value()
		resp, _ := postWithHeaders(t, ts, map[string]string{"X-Chaos-Fault": "panic"}, coherentTrace)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("status %d, want 500", resp.StatusCode)
		}
		if s.stats.WorkerPanics.Value() != before+1 {
			t.Error("worker panic not recovered/counted")
		}
		// The fleet survived its panic.
		r2, vr := postTrace(t, ts, "", coherentTrace)
		if r2.StatusCode != http.StatusOK || vr.Verdict != "coherent" {
			t.Errorf("fleet wounded after worker panic: %d %+v", r2.StatusCode, vr)
		}
	})
	t.Run("slow", func(t *testing.T) {
		start := time.Now()
		resp, vr := postWithHeaders(t, ts, map[string]string{"X-Chaos-Fault": "slow"}, incoherentTrace)
		if resp.StatusCode != http.StatusOK || vr.Verdict != "incoherent" {
			t.Fatalf("slow fault broke the verdict: %d %+v", resp.StatusCode, vr)
		}
		if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
			t.Errorf("slow fault only stalled %v, want >= 50ms", elapsed)
		}
	})
	t.Run("degrade", func(t *testing.T) {
		resp, vr := postWithHeaders(t, ts, map[string]string{"X-Chaos-Fault": "degrade"}, coherentTrace)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if !vr.Degraded || !strings.Contains(vr.DegradeReason, "chaos") {
			t.Errorf("forced degrade not marked: %+v", vr)
		}
	})
	t.Run("unknown kind is 400", func(t *testing.T) {
		resp, _ := postWithHeaders(t, ts, map[string]string{"X-Chaos-Fault": "meteor"}, coherentTrace)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400", resp.StatusCode)
		}
	})

	if n500, npanic := in.fired[fault500].Load(), in.fired[faultPanic].Load(); n500 == 0 || npanic == 0 {
		t.Errorf("injector bookkeeping missing faults: 500 fired %d, panic fired %d", n500, npanic)
	}
}

// TestChaosDisabledIgnoresHeader: a production server has no fault
// hook, so every fault header, and an unknown one, is inert — a stray
// header cannot take down or degrade it.
func TestChaosDisabledIgnoresHeader(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{workers: 2})
	if s.faults != nil {
		t.Fatal("newServer installed a fault hook")
	}
	for _, name := range []string{"panic", "slow", "drop", "500", "degrade", "meteor"} {
		resp, vr := postWithHeaders(t, ts, map[string]string{"X-Chaos-Fault": name}, coherentTrace)
		if resp.StatusCode != http.StatusOK || vr.Verdict != "coherent" {
			t.Errorf("%s: fault header acted on a production server: %d %+v", name, resp.StatusCode, vr)
		}
	}
	if n := s.stats.WorkerPanics.Value(); n != 0 {
		t.Errorf("%d worker panics recovered, want 0", n)
	}
	if n := s.stats.Degraded.Value(); n != 0 {
		t.Errorf("%d requests degraded, want 0", n)
	}
}

// --- shutdown under chaos ---------------------------------------------

// TestShutdownUnderChaos closes the server while seeded faults and slow
// solves are in flight: in-flight work drains, new requests get 503,
// the trace sink holds complete JSONL lines, and no goroutines leak.
func TestShutdownUnderChaos(t *testing.T) {
	baseline := runtime.NumGoroutine()

	traceFile := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	jl := obs.NewJSONL(f)
	s := newServer(serverConfig{workers: 2, maxInflight: 16, queueDepth: 32, traceSink: jl})
	in := &faultInjector{slow: 80 * time.Millisecond}
	s.faults = in
	ts := httptest.NewServer(in.wrap(s.Handler()))

	faults := []string{"", "slow", "500", "panic", "", "slow", "degrade", ""}
	var wg sync.WaitGroup
	for i := 0; i < len(faults); i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/verify", strings.NewReader(coherentTrace))
			req.Header.Set("Content-Type", "text/plain")
			if faults[i] != "" {
				req.Header.Set("X-Chaos-Fault", faults[i])
			}
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	time.Sleep(30 * time.Millisecond) // chaos in flight
	s.Close()                         // drain while faults are active
	wg.Wait()

	// New work after Close is refused with 503, not hung. (A trace the
	// cache has never seen: cached answers legitimately survive Close.)
	resp, err := http.Post(ts.URL+"/v1/verify", "text/plain", strings.NewReader(incoherentTrace))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown status %d, want 503", resp.StatusCode)
	}
	ts.Close()

	// The trace flushed complete JSONL: every line parses.
	jl.Close()
	f.Close()
	raw, err := os.Open(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	lines := 0
	sc := bufio.NewScanner(raw)
	for sc.Scan() {
		var v map[string]any
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("trace line %d is not complete JSON: %v", lines+1, err)
		}
		lines++
	}
	if lines == 0 {
		t.Error("trace sink flushed no spans")
	}

	// No goroutine leak: the fleet, the drain ticker, and the HTTP
	// goroutines all wind down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// --- chaos availability gate ------------------------------------------

// chaosPool is the 24-trace request pool of the chaos gate: multi-address
// coherent traces (checked per address, sharded), every third mutated
// with an injected violation, every sixth sent as model=sc.
func chaosPool(seed int64) []client.Request {
	rng := rand.New(rand.NewSource(seed))
	kinds := workload.ViolationKinds()
	var pool []client.Request
	for i := 0; i < 24; i++ {
		exec, _ := workload.GenerateCoherent(rng, workload.GenConfig{
			Processors: 3 + rng.Intn(2),
			OpsPerProc: 12 + rng.Intn(12),
			Addresses:  3 + rng.Intn(3),
			Values:     4,
		})
		if i%3 == 1 {
			if mut, err := workload.Inject(rng, exec, kinds[rng.Intn(len(kinds))]); err == nil {
				exec = mut
			}
		}
		var buf bytes.Buffer
		if err := trace.Write(&buf, trace.New(exec)); err != nil {
			continue
		}
		model := "coherence"
		if i%6 == 5 {
			model = "sc"
		}
		pool = append(pool, client.Request{Trace: buf.String(), Model: model})
	}
	return pool
}

// chaosCase configures one run of the gate.
type chaosCase struct {
	seed        int64 // the fault schedule's seed
	requests    int
	conc        int
	rate        float64 // fraction of requests assigned a fault
	maxInflight int
	slow        time.Duration
}

// chaosOutcome is what one run reports.
type chaosOutcome struct {
	assigned                     map[string]int
	completed, rejected, errors  int
	successAfterRetry            int64
	shed, degraded, workerPanics int64
}

// runChaos drives c.requests through the resilient client against a
// server with the injection layer on and brownout off, so degraded
// answers come only from the schedule. Each request's pre-assigned
// fault rides the X-Chaos-Fault header of its first attempt only:
// retries land on a healthy path, which is what availability measures.
func runChaos(t *testing.T, c chaosCase) chaosOutcome {
	t.Helper()
	srv, ts, _ := newChaosServer(t, serverConfig{workers: 4, maxInflight: c.maxInflight, cacheSize: 1024}, c.slow)
	const seed = 1 // workload and client seed
	pool := chaosPool(seed)
	sched := buildSchedule(c.seed, c.requests, c.rate)
	// One shared client: its retry budget and breaker guard the server
	// from the whole run. The breaker threshold sits above any streak of
	// consecutive faults a few-percent schedule plausibly produces, so
	// availability reflects retries, not fail-fast short-circuits.
	cl := client.New(client.Config{
		Base:             ts.URL,
		BaseBackoff:      5 * time.Millisecond,
		MaxBackoff:       250 * time.Millisecond,
		BreakerThreshold: 8,
		Seed:             seed,
	})
	status := make([]int, c.requests) // 200, the HTTP error status, or 0 for a transport error
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < c.conc; w++ {
		rng := rand.New(rand.NewSource(seed + int64(w)*7919))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= c.requests {
					return
				}
				var hook func(int, *http.Request)
				if k := sched[i]; k != faultNone {
					hook = func(attempt int, hr *http.Request) {
						if attempt == 0 {
							hr.Header.Set("X-Chaos-Fault", k.String())
						}
					}
				}
				req := pool[rng.Intn(len(pool))]
				_, err := cl.Do(context.Background(), &req, hook)
				var he *client.HTTPError
				switch {
				case err == nil:
					status[i] = http.StatusOK
				case errors.As(err, &he):
					status[i] = he.Status
				}
			}
		}()
	}
	wg.Wait()
	out := chaosOutcome{
		assigned:          countSchedule(sched),
		successAfterRetry: cl.Stats().SuccessAfterRetry,
		shed:              srv.stats.Shed.Value(),
		degraded:          srv.stats.Degraded.Value(),
		workerPanics:      srv.stats.WorkerPanics.Value(),
	}
	for _, st := range status {
		switch st {
		case http.StatusOK:
			out.completed++
		case http.StatusTooManyRequests:
			out.rejected++
		default:
			out.errors++
		}
	}
	return out
}

// TestChaosAvailability is the resilience gate: under a seeded fault
// schedule (worker panics, slow solves, dropped connections, 5xx, forced
// degrades) the resilient client must still get at least 99% of its
// answers, every assigned panic and degrade must fire, and two runs of
// the same seed must report the same fault plan and the same shed and
// degraded counts. The schedule is a pure function of the seed, so a
// failure is a robustness regression, not flake.
func TestChaosAvailability(t *testing.T) {
	for _, tc := range []struct {
		name string
		chaosCase
		everyKind bool // the schedule assigns every fault kind
	}{
		// The configuration CI has always gated on: 4 workers, 400
		// requests at concurrency 8, a 5% fault rate, seed 1.
		{"ci", chaosCase{seed: 1, requests: 400, conc: 8, rate: 0.05, slow: 200 * time.Millisecond}, false},
		// Seed 2 assigns every kind at this size and rate, so the
		// degraded and panic checks below cannot pass vacuously.
		{"every-kind", chaosCase{seed: 2, requests: 80, conc: 4, rate: 0.1, maxInflight: 32, slow: 20 * time.Millisecond}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := runChaos(t, tc.chaosCase)
			b := runChaos(t, tc.chaosCase)
			if len(a.assigned) == 0 {
				t.Fatalf("no faults assigned at rate %v over %d requests", tc.rate, tc.requests)
			}
			if tc.everyKind {
				for _, k := range faultNames[faultPanic:] {
					if a.assigned[k] == 0 {
						t.Errorf("seed %d assigned no %s fault: %v", tc.seed, k, a.assigned)
					}
				}
			}
			if !reflect.DeepEqual(a.assigned, b.assigned) || a.shed != b.shed || a.degraded != b.degraded {
				t.Errorf("same-seed runs differ: assigned %v/%v, shed %d/%d, degraded %d/%d",
					a.assigned, b.assigned, a.shed, b.shed, a.degraded, b.degraded)
			}
			t.Logf("assigned %v: completed %d, rejected %d, errors %d, %d answers after a retry, shed %d, degraded %d",
				a.assigned, a.completed, a.rejected, a.errors, a.successAfterRetry, a.shed, a.degraded)
			for _, o := range []chaosOutcome{a, b} {
				if o.completed+o.rejected+o.errors != tc.requests {
					t.Errorf("sample accounting: %d completed + %d rejected + %d errors != %d",
						o.completed, o.rejected, o.errors, tc.requests)
				}
				if avail := float64(o.completed) / float64(tc.requests); avail < 0.99 {
					t.Errorf("availability %.4f under chaos, want >= 0.99 (errors=%d rejected=%d)",
						avail, o.errors, o.rejected)
				}
				// A fault landing on a would-be cache hit bypasses the
				// cache, so every assigned panic reaches a fleet worker.
				if o.workerPanics != int64(o.assigned["panic"]) {
					t.Errorf("worker panics recovered %d != assigned panic faults %d", o.workerPanics, o.assigned["panic"])
				}
				if o.degraded != int64(o.assigned["degrade"]) {
					t.Errorf("degraded %d != assigned degrade faults %d", o.degraded, o.assigned["degrade"])
				}
				if o.successAfterRetry == 0 && o.assigned["500"]+o.assigned["panic"]+o.assigned["drop"] > 0 {
					t.Error("retryable faults fired but no answer needed a retry")
				}
			}
		})
	}
}
