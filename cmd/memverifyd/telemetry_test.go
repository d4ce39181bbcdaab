package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"memverify/internal/obs"
)

// syncBuffer is a mutex-guarded bytes.Buffer: the JSONL sink flushes
// from handler goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestIDHeader checks every verify response carries an
// X-Request-ID (also echoed in the body), and that a client-supplied id
// survives end to end.
func TestRequestIDHeader(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{workers: 2})
	resp, vr := postTrace(t, ts, "", coherentTrace)
	id := resp.Header.Get("X-Request-ID")
	if id == "" {
		t.Fatal("no X-Request-ID header")
	}
	if vr.RequestID != id {
		t.Errorf("body request_id %q != header %q", vr.RequestID, id)
	}
	// A second request gets a different id.
	resp2, _ := postTrace(t, ts, "", coherentTrace)
	if id2 := resp2.Header.Get("X-Request-ID"); id2 == "" || id2 == id {
		t.Errorf("ids not unique: %q then %q", id, id2)
	}
	// A client-supplied id is honored.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/verify", strings.NewReader(coherentTrace))
	req.Header.Set("X-Request-ID", "client-chose-this")
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get("X-Request-ID"); got != "client-chose-this" {
		t.Errorf("client id not honored: %q", got)
	}
}

// TestRequestIDInTraceSpans checks the stitching contract: with a JSONL
// trace sink configured, the spans of a request — the request span and
// the solver spans nested under it — carry that request's id in their
// req field, so a logged response joins against the server trace.
func TestRequestIDInTraceSpans(t *testing.T) {
	var buf syncBuffer
	jl := obs.NewJSONL(&buf)
	_, ts := newTestServer(t, serverConfig{workers: 2, traceSink: jl})
	resp, _ := postTrace(t, ts, "", coherentTrace)
	id := resp.Header.Get("X-Request-ID")
	if id == "" {
		t.Fatal("no X-Request-ID header")
	}
	// Span-end defers run after the response is written; poll.
	deadline := time.Now().Add(5 * time.Second)
	var spans map[string]int
	for {
		jl.Flush()
		spans = spanNamesForReq(t, buf.String(), id)
		// The request span plus at least one nested solver span (the
		// solver names its top span after the strategy, e.g.
		// "solve-auto") must carry the id.
		if spans["request"] > 0 && len(spans) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("spans for request %q never appeared; got %v", id, spans)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if spans["request"] != 1 {
		t.Errorf("want exactly one request span for %q, got %v", id, spans)
	}
}

// spanNamesForReq parses a JSONL trace and counts span_begin events
// carrying req == id, by span name.
func spanNamesForReq(t *testing.T, trace, id string) map[string]int {
	t.Helper()
	out := map[string]int{}
	for _, line := range strings.Split(trace, "\n") {
		if line == "" {
			continue
		}
		var ev struct {
			Ev   string `json:"ev"`
			Name string `json:"name"`
			Req  string `json:"req"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if ev.Ev == "span_begin" && ev.Req == id {
			out[ev.Name]++
		}
	}
	return out
}

// Line shapes of the Prometheus text exposition format, version 0.0.4
// (the regexes of internal/obs's TestPromExpositionValid).
var (
	promCommentRe = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	promSampleRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)
)

// scrapeMetrics GETs /metrics, fails the test on any line outside the
// exposition grammar, and returns the exposition.
func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	text := string(body)
	for n, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if !promCommentRe.MatchString(line) && !promSampleRe.MatchString(line) {
			t.Errorf("metrics line %d outside the exposition grammar: %q", n+1, line)
		}
	}
	return text
}

// sampleValue returns the value of the exposition line for series, the
// metric name with its label block, and whether the line exists.
func sampleValue(text, series string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

// TestMetricsEndpoint drives a few requests and scrapes /metrics: every
// line must be in the exposition grammar, the stage histograms must have
// observations, and the service gauges and counters must be present.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{workers: 2, cacheSize: 1024})
	postTrace(t, ts, "", coherentTrace)
	postTrace(t, ts, "", coherentTrace) // cache hit: no solve stage
	postTrace(t, ts, "", incoherentTrace)
	text := scrapeMetrics(t, ts)
	for _, name := range []string{
		"memverifyd_requests_total", "memverifyd_cache_hits_total",
		"memverifyd_queue_depth", "memverifyd_in_flight",
		"memverifyd_workers_busy", "memverifyd_worker_utilization",
		"memverifyd_workers", "memverifyd_cache_len",
		"memverify_search_states_total", "memverify_address_solves_begun_total",
	} {
		if _, ok := sampleValue(text, name); !ok {
			t.Errorf("metric %s missing from exposition", name)
		}
	}
	for _, stage := range []string{"parse", "cache", "queue", "solve", "merge"} {
		if n, _ := sampleValue(text, `memverifyd_stage_duration_seconds_count{stage="`+stage+`"}`); n == 0 {
			t.Errorf("stage %q histogram empty", stage)
		}
	}
	if n, _ := sampleValue(text, "memverifyd_request_duration_seconds_count"); n != 3 {
		t.Errorf("request histogram count %v, want 3", n)
	}
}

// TestSearchCountersOneSet sends a request that runs the exact search
// and checks /metrics and /debug/vars read the same search registers.
func TestSearchCountersOneSet(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{workers: 2})
	if _, vr := postTrace(t, ts, "?strategy=exact", coherentTrace); vr.Verdict != "coherent" || vr.Stats.States == 0 {
		t.Fatalf("exact request: %+v", vr)
	}
	text := scrapeMetrics(t, ts)
	if n, _ := sampleValue(text, "memverify_search_states_total"); n == 0 {
		t.Fatalf("no search states in /metrics:\n%s", text)
	}
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Memverify map[string]any `json:"memverify"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, line := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(name, "memverify_") {
			continue
		}
		seen++
		if got, _ := vars.Memverify[name].(float64); strconv.FormatFloat(got, 'g', -1, 64) != val {
			t.Errorf("%s: /metrics %s, /debug/vars %v", name, val, vars.Memverify[name])
		}
	}
	if seen < 9 {
		t.Errorf("only %d search series in /metrics", seen)
	}
}

// TestDebugTimings checks ?debug=timings echoes the stage breakdown.
func TestDebugTimings(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{workers: 2})
	_, vr := postTrace(t, ts, "?debug=timings", coherentTrace)
	if vr.Timings == nil {
		t.Fatal("no timings in response")
	}
	for _, key := range []string{"parse_ms", "cache_ms", "queue_wait_ms", "solve_ms", "merge_ms", "shards", "total_ms"} {
		if _, ok := vr.Timings[key]; !ok {
			t.Errorf("timings missing %q: %v", key, vr.Timings)
		}
	}
	if vr.Timings["total_ms"] <= 0 || vr.Timings["shards"] != 1 {
		t.Errorf("implausible timings: %v", vr.Timings)
	}
	// Without the flag the field stays off the wire.
	_, plain := postTrace(t, ts, "", coherentTrace)
	if plain.Timings != nil {
		t.Errorf("timings leaked without debug flag: %v", plain.Timings)
	}
}

// TestDebugRequestsInflight holds a slow request mid-solve and checks
// GET /debug/requests shows it in the in-flight table with its id and
// stage — then, after completion of a fast request, checks the slowest
// table records stage breakdowns.
func TestDebugRequestsInflight(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slow, _ := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/verify", strings.NewReader(hardTrace(t)))
	slow.Header.Set("X-Request-ID", "slow-one")
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := http.DefaultClient.Do(slow); err == nil {
			resp.Body.Close()
		}
	}()
	type debugResp struct {
		InFlight []reqRecord `json:"in_flight"`
		Slowest  []reqRecord `json:"slowest"`
	}
	fetch := func() debugResp {
		resp, err := http.Get(ts.URL + "/debug/requests")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var dr debugResp
		if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
			t.Fatal(err)
		}
		return dr
	}
	// The request passes through the parse and cache stages before it
	// solves, and a poll may land in either: wait for the solve stage.
	deadline := time.Now().Add(10 * time.Second)
	var seen *reqRecord
	for seen == nil || seen.Stage != "solve" {
		if time.Now().After(deadline) {
			if seen == nil {
				t.Fatal("slow request never appeared in /debug/requests in-flight table")
			}
			t.Fatalf("in-flight stage %q, want solve", seen.Stage)
		}
		dr := fetch()
		for i := range dr.InFlight {
			if dr.InFlight[i].ID == "slow-one" {
				seen = &dr.InFlight[i]
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if seen.AgeMS <= 0 {
		t.Errorf("in-flight age %v", seen.AgeMS)
	}
	cancel()
	<-done

	// A completed request lands in the slowest table with its breakdown.
	resp, _ := postTrace(t, ts, "", coherentTrace)
	id := resp.Header.Get("X-Request-ID")
	deadline = time.Now().Add(5 * time.Second)
	for {
		dr := fetch()
		var rec *reqRecord
		for i := range dr.Slowest {
			if dr.Slowest[i].ID == id {
				rec = &dr.Slowest[i]
			}
		}
		if rec != nil {
			if rec.Verdict != "coherent" || rec.DurationMS <= 0 || rec.Timings["total_ms"] <= 0 {
				t.Errorf("slow-table record incomplete: %+v", *rec)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("completed request never reached the slowest table")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRequestTableDuplicateIDs: two in-flight requests may carry the
// same client X-Request-ID; finishing one must leave the other listed.
func TestRequestTableDuplicateIDs(t *testing.T) {
	tab := newRequestTable(4)
	first := tab.start("same", "first")
	tab.start("same", "second")
	tab.finish(first, "coherent", nil)
	inflight, slowest := tab.snapshot()
	if len(inflight) != 1 || inflight[0].Remote != "second" {
		t.Errorf("in-flight after one of two same-id requests finished: %+v, want the second", inflight)
	}
	if len(slowest) != 1 || slowest[0].Remote != "first" {
		t.Errorf("slowest table %+v, want the first", slowest)
	}
}

// TestStatsGauges checks /v1/stats carries the live saturation gauges.
func TestStatsGauges(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{workers: 3})
	postTrace(t, ts, "", coherentTrace)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"queue_depth", "in_flight", "workers_busy", "workers"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("stats missing %q: %v", key, stats)
		}
	}
	if stats["workers"].(float64) != 3 {
		t.Errorf("workers = %v, want 3", stats["workers"])
	}
}
