package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"memverify/internal/memory"
	"memverify/internal/reduction"
	"memverify/internal/sat"
	"memverify/internal/trace"
	"memverify/internal/workload"
)

const coherentTrace = `init x 0
P0: W x 1
P0: W x 2
P1: R x 1
P1: R x 2
`

const incoherentTrace = `init x 0
P0: W x 1
P1: R x 9
`

// newTestServer boots a service and its HTTP front end for one test.
func newTestServer(t *testing.T, cfg serverConfig) (*Server, *httptest.Server) {
	t.Helper()
	s := newServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// postTrace sends a raw-text verify request and decodes the response.
func postTrace(t *testing.T, ts *httptest.Server, query, body string) (*http.Response, *VerifyResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/verify"+query, "text/plain", strings.NewReader(body))
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

func TestVerifyCoherent(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{workers: 2})
	resp, vr := postTrace(t, ts, "", coherentTrace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if vr.Verdict != "coherent" || vr.Model != "Coherence" || vr.Cached {
		t.Errorf("unexpected response: %+v", vr)
	}
	if len(vr.Addrs) != 1 || vr.Addrs[0].Addr != "x" || vr.Addrs[0].Verdict != "coherent" {
		t.Errorf("per-address slice wrong: %+v", vr.Addrs)
	}
}

func TestVerifyIncoherent(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{workers: 2})
	resp, vr := postTrace(t, ts, "", incoherentTrace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if vr.Verdict != "incoherent" || vr.Violation != "x" {
		t.Errorf("unexpected response: %+v", vr)
	}
}

// TestVerifyUntouchedFinalAddress: an address no operation touches is
// checked when it declares a final value; init x 1 and final x 0 make
// the trace incoherent at x.
func TestVerifyUntouchedFinalAddress(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{workers: 2})
	resp, vr := postTrace(t, ts, "", "init x 1\nfinal x 0\nP0: W y 1\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if vr.Verdict != "incoherent" || vr.Violation != "x" || len(vr.Addrs) != 2 {
		t.Errorf("unexpected response: %+v", vr)
	}
}

func TestVerifyJSONEnvelope(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{workers: 2})
	body, _ := json.Marshal(VerifyRequest{Trace: coherentTrace, Model: "sc", Strategy: "auto"})
	resp, err := http.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vr VerifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || vr.Verdict != "consistent" || vr.Model != "SC" {
		t.Errorf("status %d response %+v", resp.StatusCode, vr)
	}
}

func TestVerifyBadRequests(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{workers: 2})
	for name, tc := range map[string]struct{ query, body string }{
		"garbage trace":    {"", "this is not a trace\n"},
		"unknown model":    {"?model=weird", coherentTrace},
		"unknown strategy": {"?strategy=weird", coherentTrace},
		"bad max_states":   {"?max_states=banana", coherentTrace},
	} {
		resp, _ := postTrace(t, ts, tc.query, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/verify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d", resp.StatusCode)
	}
}

// TestBackpressure fills the admission semaphore and proves overload is
// answered with 429 + Retry-After and nothing is buffered: queue depth
// stays zero, so memory under overload is bounded by maxInflight.
func TestBackpressure(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{workers: 1, maxInflight: 2, queueDepth: 4})
	// Occupy every admission slot directly; requests arriving now are
	// beyond capacity by construction.
	s.inflight <- struct{}{}
	s.inflight <- struct{}{}
	resp, _ := postTrace(t, ts, "", coherentTrace)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("missing Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After %q: must be an integer >= 1", ra)
	}
	if got := s.stats.Rejected.Value(); got != 1 {
		t.Errorf("rejected counter %d, want 1", got)
	}
	if len(s.queue) != 0 {
		t.Errorf("rejected request leaked %d entries into the shard queue", len(s.queue))
	}
	// Draining the semaphore restores service.
	<-s.inflight
	<-s.inflight
	resp, vr := postTrace(t, ts, "", coherentTrace)
	if resp.StatusCode != http.StatusOK || vr.Verdict != "coherent" {
		t.Errorf("service did not recover: status %d %+v", resp.StatusCode, vr)
	}
}

func TestCacheHit(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{workers: 2, cacheSize: 1024})
	_, first := postTrace(t, ts, "", coherentTrace)
	resp, second := postTrace(t, ts, "", coherentTrace)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if first.Cached || !second.Cached {
		t.Errorf("cached flags: first=%v second=%v", first.Cached, second.Cached)
	}
	if second.Verdict != first.Verdict || len(second.Addrs) != len(first.Addrs) {
		t.Errorf("cached response diverges: %+v vs %+v", second, first)
	}
	if h, m := s.stats.CacheHits.Value(), s.stats.CacheMisses.Value(); h != 1 || m != 1 {
		t.Errorf("cache counters hits=%d misses=%d", h, m)
	}
	// A different budget is a different key.
	_, third := postTrace(t, ts, "?max_states=100000", coherentTrace)
	if third.Cached {
		t.Error("budget change hit the old cache entry")
	}
}

// orderedTraceGood and orderedTraceBad share one execution
// (histories/initial/final — and therefore one execution fingerprint)
// and differ only in their order lines: the good order admits an SC
// schedule, the bad one contradicts the read sequence.
const orderedTraceGood = `init x 0
P0: W x 1
P1: W x 2
P2: R x 1
P2: R x 2
order x P0[0] P1[0]
`

const orderedTraceBad = `init x 0
P0: W x 1
P1: W x 2
P2: R x 1
P2: R x 2
order x P1[0] P0[0]
`

// TestCacheKeyIncludesWriteOrders proves two traces with identical
// executions but different order lines do not share a cache entry when
// use_order is in play — the second must get its own (opposite)
// verdict, not the first one's cached answer.
func TestCacheKeyIncludesWriteOrders(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{workers: 2, cacheSize: 1024})
	resp, first := postTrace(t, ts, "?model=sc&use_order=true", orderedTraceGood)
	if resp.StatusCode != http.StatusOK || first.Verdict != "consistent" {
		t.Fatalf("good order: status %d %+v", resp.StatusCode, first)
	}
	resp, second := postTrace(t, ts, "?model=sc&use_order=true", orderedTraceBad)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bad order: status %d", resp.StatusCode)
	}
	if second.Cached {
		t.Error("different order lines served the first trace's cache entry")
	}
	if second.Verdict != "inconsistent" {
		t.Errorf("bad order verdict %q, want inconsistent", second.Verdict)
	}
	// An identical repeat still hits.
	_, third := postTrace(t, ts, "?model=sc&use_order=true", orderedTraceBad)
	if !third.Cached || third.Verdict != "inconsistent" {
		t.Errorf("repeat of bad order: %+v", third)
	}
}

// TestCacheKeyCanonicalSpellings proves equivalent model/strategy
// spellings share one cache entry instead of fragmenting the LRU.
func TestCacheKeyCanonicalSpellings(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{workers: 2, cacheSize: 1024})
	postTrace(t, ts, "", coherentTrace) // model "", strategy ""
	_, second := postTrace(t, ts, "?model=COHERENCE&strategy=auto", coherentTrace)
	if !second.Cached {
		t.Error("canonical-equivalent spellings missed the cache")
	}
	if n := s.cache.len(); n != 1 {
		t.Errorf("cache fragmented into %d entries, want 1", n)
	}
	// The retired "portfolio" spelling is the fast preset: it answers
	// as "fast" and shares fast's cache entry.
	postTrace(t, ts, "?strategy=fast", coherentTrace)
	_, alias := postTrace(t, ts, "?strategy=portfolio", coherentTrace)
	if !alias.Cached || alias.Strategy != "fast" {
		t.Errorf("portfolio spelling: cached=%v strategy=%q, want a cached fast answer", alias.Cached, alias.Strategy)
	}
	if n := s.cache.len(); n != 2 {
		t.Errorf("cache holds %d entries, want 2 (auto, fast)", n)
	}
}

// TestNegativeBudgetsRejected proves negative budgets are rejected in
// both request encodings — downstream they would read as "unlimited"
// and bypass the server ceilings.
func TestNegativeBudgetsRejected(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{workers: 2})
	for name, body := range map[string]VerifyRequest{
		"json negative max_states": {Trace: coherentTrace, MaxStates: -1},
		"json negative timeout_ms": {Trace: coherentTrace, TimeoutMS: -1},
	} {
		b, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	for _, query := range []string{"?max_states=-1", "?timeout_ms=-1"} {
		resp, _ := postTrace(t, ts, query, coherentTrace)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %s: status %d, want 400", query, resp.StatusCode)
		}
	}
}

// TestShutdownAnswers503 proves an enqueue failure during shutdown is
// reported as 503 Service Unavailable and counted as unavailable, not
// blamed on the client as a 400 parse error.
func TestShutdownAnswers503(t *testing.T) {
	s := newServer(serverConfig{workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	s.Close() // fleet stopped: enqueue can only fail with errShuttingDown
	resp, _ := postTrace(t, ts, "", coherentTrace)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if u, p := s.stats.Unavailable.Value(), s.stats.ParseErrors.Value(); u != 1 || p != 0 {
		t.Errorf("counters unavailable=%d parse_errors=%d, want 1/0", u, p)
	}
}

// hardTrace reduces an unsatisfiable formula to a single-address VMC
// instance whose complete search runs for seconds — long enough that
// budgets and cancellation strike mid-search.
func hardTrace(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	const m = 8
	f := &sat.Formula{NumVars: m}
	for bits := 0; bits < 8; bits++ {
		c := sat.Clause{}
		for k := 0; k < 3; k++ {
			l := sat.Lit(k + 1)
			if bits&(1<<k) != 0 {
				l = l.Neg()
			}
			c = append(c, l)
		}
		f.Clauses = append(f.Clauses, c)
	}
	for j := 0; j < 2*m; j++ {
		c := sat.Clause{}
		for k := 0; k < 1+rng.Intn(3); k++ {
			l := sat.Lit(1 + rng.Intn(m))
			if rng.Intn(2) == 0 {
				l = l.Neg()
			}
			c = append(c, l)
		}
		f.Clauses = append(f.Clauses, c)
	}
	inst, err := reduction.SATToVMC(f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, trace.New(inst.Exec)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestUndecidedOnBudget(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{workers: 2, cacheSize: 1024})
	resp, vr := postTrace(t, ts, "?max_states=200", hardTrace(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if vr.Verdict != "undecided" || vr.Reason == "" {
		t.Errorf("want undecided with reason, got %+v", vr)
	}
	// Undecided answers are not cached.
	_, again := postTrace(t, ts, "?max_states=200", hardTrace(t))
	if again.Cached {
		t.Error("undecided verdict was cached")
	}
	if s.stats.Undecided.Value() != 2 {
		t.Errorf("undecided counter %d", s.stats.Undecided.Value())
	}
}

// TestCancellationMidRequest proves a client disconnect propagates as
// context cancellation into the running search: the handler returns
// long before the multi-second search could finish, and the server
// counts the cancellation.
func TestCancellationMidRequest(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{workers: 2})
	body := hardTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/verify", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		resp.Body.Close()
		t.Fatal("request succeeded despite cancellation")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to take effect", elapsed)
	}
	// The handler finishes asynchronously after the client is gone; the
	// cancelled counter confirms the search aborted via the context.
	deadline := time.Now().Add(5 * time.Second)
	for s.stats.Cancelled.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never recorded the cancellation")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWideRequestAddressOrder: a 20,000-address request answers with
// every address, in address order, although its shards run largest
// first (every seventh address has an extra read).
func TestWideRequestAddressOrder(t *testing.T) {
	const n = 20000
	var b strings.Builder
	for k := 0; k < n; k++ {
		fmt.Fprintf(&b, "P0: W a%d 1\nP1: R a%d 1\n", k, k)
		if k%7 == 3 {
			fmt.Fprintf(&b, "P2: R a%d 1\n", k)
		}
	}
	_, ts := newTestServer(t, serverConfig{workers: 2})
	resp, vr := postTrace(t, ts, "", b.String())
	if resp.StatusCode != http.StatusOK || vr.Verdict != "coherent" {
		t.Fatalf("status %d verdict %q", resp.StatusCode, vr.Verdict)
	}
	if len(vr.Addrs) != n {
		t.Fatalf("%d addresses reported, want %d", len(vr.Addrs), n)
	}
	for k, ar := range vr.Addrs {
		if want := fmt.Sprintf("a%d", k); ar.Addr != want || ar.Verdict != "coherent" {
			t.Fatalf("address %d reported as %+v, want %s coherent", k, ar, want)
		}
	}
}

func TestHealthzAndStats(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{workers: 2})
	postTrace(t, ts, "", coherentTrace)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["requests"].(float64) < 1 || stats["decided"].(float64) < 1 {
		t.Errorf("stats did not count the request: %v", stats)
	}
	// The obs debug surface is mounted.
	resp, err = http.Get(ts.URL + "/debug/vars")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/vars: %v %v", err, resp)
	}
	resp.Body.Close()
}

func ExampleVerifyResponse() {
	// Shape of a verdict as clients see it.
	resp := VerifyResponse{Verdict: "coherent", Model: "Coherence", Strategy: "auto"}
	b, _ := json.Marshal(resp)
	fmt.Println(string(b))
	// Output: {"verdict":"coherent","model":"Coherence","strategy":"auto","stats":{"states":0,"memo_hits":0,"branches":0,"duration_ms":0},"cached":false,"elapsed_ms":0}
}

// getStats decodes GET /v1/stats.
func getStats(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestCacheDisabled: a cache size of 0 — the -cache 0 flag — disables
// the result cache, so a repeated trace is solved again.
func TestCacheDisabled(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{workers: 2, cacheSize: 0})
	_, first := postTrace(t, ts, "", coherentTrace)
	_, second := postTrace(t, ts, "", coherentTrace)
	if first.Cached || second.Cached || second.Verdict != "coherent" {
		t.Errorf("cache 0: first cached=%v, second cached=%v verdict %q", first.Cached, second.Cached, second.Verdict)
	}
	if stats := getStats(t, ts); stats["cache_len"].(float64) != 0 || stats["cache_hits"].(float64) != 0 {
		t.Errorf("cache 0: cache_len %v, cache_hits %v, want 0 and 0", stats["cache_len"], stats["cache_hits"])
	}
}

// TestHardnessOrder: planShards orders addresses by projection size
// descending, ties by address ascending — a deterministic LPT schedule —
// and keeps every checked address exactly once, including one that
// only declares a final value (size 0, so last). Every address here is
// litmus-sized, so all of them ride the batch shard.
func TestHardnessOrder(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(2, 1), memory.W(2, 2), memory.W(2, 3), memory.W(0, 1), memory.W(0, 2)},
		memory.History{memory.W(2, 4), memory.W(1, 1), memory.W(3, 1), memory.W(3, 2)},
	).SetFinal(5, 0) // sizes 2, 1, 4, 2 and 0 at address 5
	addrs, inBatch := planShards(exec)
	if want := []memory.Addr{2, 0, 3, 1, 5}; !slices.Equal(addrs, want) {
		t.Fatalf("hardness order = %v, want %v", addrs, want)
	}
	if !slices.Equal(inBatch, []bool{true, true, true, true, true}) {
		t.Errorf("batch plan = %v, want every address batched", inBatch)
	}
	for seed := int64(0); seed < 20; seed++ {
		exec, _ := workload.GenerateCoherent(rand.New(rand.NewSource(seed)), workload.GenConfig{
			Processors: 3, OpsPerProc: 12, Addresses: 4, Values: 3,
		})
		addrs, _ := planShards(exec)
		sorted := slices.Clone(addrs)
		slices.Sort(sorted)
		if !slices.Equal(sorted, exec.CheckedAddresses()) {
			t.Fatalf("seed %d: plan %v is not a permutation of the checked addresses %v", seed, addrs, exec.CheckedAddresses())
		}
	}
}

// TestPSearchTeam drives the -psearch head-of-queue team: a request
// whose hardest address needs the exact search and has more than
// batchMaxOps operations (so it is not batched) — a Fig 4.1 reduction of
// an unsatisfiable 3-variable formula, which solves in milliseconds.
// The team answers what a sequential server answers, the address is
// decided by the parallel search, and /v1/stats reports the configured
// team size and, as the effective one, the widest team the response
// shows.
func TestPSearchTeam(t *testing.T) {
	var clauses []sat.Clause
	for bits := 0; bits < 8; bits++ {
		c := sat.Clause{}
		for k := 0; k < 3; k++ {
			l := sat.Lit(k + 1)
			if bits&(1<<k) != 0 {
				l = l.Neg()
			}
			c = append(c, l)
		}
		clauses = append(clauses, c)
	}
	inst, err := reduction.SATToVMC(sat.NewFormula(clauses...))
	if err != nil {
		t.Fatal(err)
	}
	if n := inst.Exec.NumOps(); n <= batchMaxOps {
		t.Fatalf("instance has %d ops, want more than %d so it is not batched", n, batchMaxOps)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, trace.New(inst.Exec)); err != nil {
		t.Fatal(err)
	}
	_, seqTS := newTestServer(t, serverConfig{workers: 2})
	_, seq := postTrace(t, seqTS, "", buf.String())
	_, teamTS := newTestServer(t, serverConfig{workers: 2, psearch: 2})
	resp, team := postTrace(t, teamTS, "", buf.String())
	if resp.StatusCode != http.StatusOK || team.Verdict != seq.Verdict || team.Verdict != "incoherent" {
		t.Fatalf("status %d: team verdict %q, sequential %q, want incoherent from both", resp.StatusCode, team.Verdict, seq.Verdict)
	}
	if len(team.Addrs) != 1 || team.Addrs[0].Algorithm != "parallel-search" || seq.Addrs[0].Algorithm != "general-search" {
		t.Fatalf("algorithms: team %+v, sequential %+v", team.Addrs, seq.Addrs)
	}
	widest := 0
	for _, ar := range team.Addrs {
		widest = max(widest, ar.Workers)
	}
	stats := getStats(t, teamTS)
	if stats["search_workers"].(float64) != 2 || stats["search_workers_effective"].(float64) != float64(widest) {
		t.Errorf("search_workers %v, search_workers_effective %v, want 2 and %d",
			stats["search_workers"], stats["search_workers_effective"], widest)
	}
}
