package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// --- Tracer + JSONL ---

// TestJSONLValidAndNested drives a realistic event sequence through a
// Tracer into a JSONL sink and checks the output line by line: every
// line parses as JSON, every event lands inside an open span, the inner
// span's parent is the outer span, and every begun span is ended.
func TestJSONLValidAndNested(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	tr := NewTracer(sink)

	ctx := context.Background()
	outer, ctx := tr.BeginAddr(ctx, "solve", 0)
	tr.Stage(outer, "specialist")
	inner, _ := tr.Begin(ctx, "general-search")
	tr.MemoMiss(inner, 0)
	tr.StateEnter(inner, 0, 1)
	tr.EagerReads(inner, 1, 3)
	tr.Backtrack(inner, 1)
	tr.MemoHit(inner, 1)
	tr.BudgetPoll(inner, 64, 2)
	inner.End("coherent", 64)
	outer.End("coherent (general-search)", 64)
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	type line struct {
		TS     *int64  `json:"ts"`
		Ev     string  `json:"ev"`
		Span   uint64  `json:"span"`
		Parent *uint64 `json:"parent"`
		Name   string  `json:"name"`
		Addr   *int64  `json:"addr"`
		Depth  *int    `json:"depth"`
		States *int64  `json:"states"`
		N      *int64  `json:"n"`
		Detail string  `json:"detail"`
	}
	var lines []line
	open := map[uint64]bool{}
	for _, raw := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var l line
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("line %q does not parse: %v", raw, err)
		}
		if l.TS == nil {
			t.Fatalf("line %q missing ts", raw)
		}
		switch l.Ev {
		case "span_begin":
			open[l.Span] = true
		case "span_end":
			if !open[l.Span] {
				t.Fatalf("span_end for span %d that is not open", l.Span)
			}
			open[l.Span] = false
		default:
			if l.Span != 0 && !open[l.Span] {
				t.Fatalf("%s event on span %d outside its begin/end", l.Ev, l.Span)
			}
		}
		lines = append(lines, l)
	}
	for id, o := range open {
		if o {
			t.Errorf("span %d never ended", id)
		}
	}

	// First line: outer span begin with the address (0 must be encoded).
	if lines[0].Ev != "span_begin" || lines[0].Name != "solve" {
		t.Fatalf("first line = %+v, want solve span_begin", lines[0])
	}
	if lines[0].Addr == nil || *lines[0].Addr != 0 {
		t.Errorf("outer span addr = %v, want explicit 0", lines[0].Addr)
	}
	if lines[0].Parent != nil {
		t.Errorf("root span has parent %v", lines[0].Parent)
	}
	// Inner span parented to the outer one via the context.
	var innerBegin *line
	for i := range lines {
		if lines[i].Ev == "span_begin" && lines[i].Name == "general-search" {
			innerBegin = &lines[i]
		}
	}
	if innerBegin == nil {
		t.Fatal("inner span_begin missing")
	}
	if innerBegin.Parent == nil || *innerBegin.Parent != lines[0].Span {
		t.Errorf("inner parent = %v, want %d", innerBegin.Parent, lines[0].Span)
	}
	// Depth is meaningful (and encoded) even at 0 on search events.
	for _, l := range lines {
		switch l.Ev {
		case "state_enter", "backtrack", "memo_hit", "memo_miss", "eager_reads", "budget_poll":
			if l.Depth == nil {
				t.Errorf("%s missing depth field", l.Ev)
			}
		}
	}
	// Eager batch size rides in n.
	for _, l := range lines {
		if l.Ev == "eager_reads" && (l.N == nil || *l.N != 3) {
			t.Errorf("eager_reads n = %v, want 3", l.N)
		}
	}
}

// TestJSONLWorkerSpans checks the proc field on worker spans and the
// rung name on a ladder stage event inside one.
func TestJSONLWorkerSpans(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	tr := NewTracer(sink)

	sp, _ := tr.BeginWorker(context.Background(), "pool-worker", 0)
	tr.Stage(sp, "exact")
	sp.EndWorker(0, "done")
	if err := sink.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	var evs []map[string]any
	for _, raw := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(raw), &m); err != nil {
			t.Fatalf("line %q: %v", raw, err)
		}
		evs = append(evs, m)
	}
	wantEv := []string{"span_begin", "worker_start", "stage", "worker_end", "span_end"}
	if len(evs) != len(wantEv) {
		t.Fatalf("got %d events, want %d", len(evs), len(wantEv))
	}
	for i, m := range evs {
		if m["ev"] != wantEv[i] {
			t.Fatalf("event %d = %v, want %s", i, m["ev"], wantEv[i])
		}
	}
	// Worker id 0 must be encoded on begin/start/end.
	for _, i := range []int{0, 1, 3} {
		if p, ok := evs[i]["proc"]; !ok || p.(float64) != 0 {
			t.Errorf("%s proc = %v, want explicit 0", wantEv[i], evs[i]["proc"])
		}
	}
	if evs[2]["name"] != "exact" {
		t.Errorf("stage name = %v, want exact", evs[2]["name"])
	}
}

// TestBusDirectoryEvents checks the simulator transaction events carry
// name, proc, addr and value.
func TestBusDirectoryEvents(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	tr := NewTracer(sink)
	tr.Bus("bus-rdx", 1, 0, 7)
	tr.Directory("fetch", 2, 3, 0)
	sink.Flush()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var bus, dir map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &bus); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &dir); err != nil {
		t.Fatal(err)
	}
	if bus["ev"] != "bus" || bus["name"] != "bus-rdx" || bus["proc"].(float64) != 1 {
		t.Errorf("bus event = %v", bus)
	}
	if a, ok := bus["addr"]; !ok || a.(float64) != 0 {
		t.Errorf("bus addr = %v, want explicit 0", bus["addr"])
	}
	if bus["n"].(float64) != 7 {
		t.Errorf("bus n = %v, want 7", bus["n"])
	}
	if dir["ev"] != "dir" || dir["name"] != "fetch" || dir["addr"].(float64) != 3 {
		t.Errorf("dir event = %v", dir)
	}
}

// --- nil-safety: the zero-cost-when-off contract ---

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx := context.Background()
	sp, ctx2 := tr.Begin(ctx, "x")
	if ctx2 != ctx {
		t.Error("nil tracer Begin should pass the context through")
	}
	if sp.ID() != 0 {
		t.Errorf("no-op span id = %d, want 0", sp.ID())
	}
	spA, _ := tr.BeginAddr(ctx, "x", 1)
	spW, _ := tr.BeginWorker(ctx, "x", 1)
	sp.End("done", 1)
	spA.End("done", 1)
	spW.EndWorker(1, "done")
	tr.StateEnter(sp, 1, 1)
	tr.Backtrack(sp, 1)
	tr.MemoHit(sp, 1)
	tr.MemoMiss(sp, 1)
	tr.EagerReads(sp, 1, 1)
	tr.BudgetPoll(sp, 1, 1)
	tr.Stage(sp, "x")
	tr.Bus("x", 0, 0, 0)
	tr.Directory("x", 0, 0, 0)
	tr.SAT(sp, "x", 0)

	var r *Registry
	c := r.Search()
	if c != nil {
		t.Errorf("nil registry has search counters %+v", c)
	}
	c.Flush(1, 1, 1, 1, 1, 1)
	c.SolveBegin()
	c.SolveEnd()

	if TracerFrom(ctx) != nil || SearchFrom(ctx) != nil || From(ctx) != nil {
		t.Error("bare context should yield nil observer handles")
	}
	if With(ctx, nil) != ctx || With(ctx, &Observer{}) != ctx {
		t.Error("With on an empty observer should pass the context through")
	}
	if NewTracer(nil) != nil {
		t.Error("NewTracer(nil) should be nil to keep the no-op fast path")
	}
}

func TestObserverContext(t *testing.T) {
	o := &Observer{Tracer: NewTracer(NewCollector()), Registry: NewRegistry()}
	ctx := With(context.Background(), o)
	if TracerFrom(ctx) != o.Tracer {
		t.Error("TracerFrom lost the tracer")
	}
	if SearchFrom(ctx) != o.Registry.Search() || SearchFrom(ctx) == nil {
		t.Error("SearchFrom lost the registry's search counters")
	}
}

// --- Multi ---

type countSink struct{ n int }

func (c *countSink) Emit(Event) { c.n++ }

func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("Multi with no live sinks should be nil")
	}
	one := &countSink{}
	if got := Multi(nil, one); got != Sink(one) {
		t.Error("Multi with one live sink should return it unwrapped")
	}
	two := &countSink{}
	m := Multi(one, nil, two)
	m.Emit(Event{})
	m.Emit(Event{})
	if one.n != 2 || two.n != 2 {
		t.Errorf("fan-out counts = %d, %d, want 2, 2", one.n, two.n)
	}
}

// --- Search counters ---

func TestMetricsFlushAndSnapshot(t *testing.T) {
	r := NewRegistry()
	m := r.Search()
	m.SolveBegin()
	m.Flush(64, 10, 30, 5, 80, 7)
	m.Flush(36, 10, 10, 0, 20, 3) // depth went down; peak must not
	if m.States.Value() != 100 || m.MemoHits.Value() != 20 || m.MemoMisses.Value() != 40 ||
		m.EagerReads.Value() != 5 || m.Branches.Value() != 100 {
		t.Errorf("counters = %d/%d/%d/%d/%d", m.States.Value(), m.MemoHits.Value(),
			m.MemoMisses.Value(), m.EagerReads.Value(), m.Branches.Value())
	}
	if d := m.Depth.Value(); d != 3 {
		t.Errorf("depth = %d, want last flushed 3", d)
	}
	if d := m.PeakDepth.Value(); d != 7 {
		t.Errorf("peak depth = %d, want 7", d)
	}
	if m.SolvesBegun.Value() != 1 || m.SolvesDone.Value() != 0 {
		t.Errorf("solves = %d/%d, want 0/1", m.SolvesDone.Value(), m.SolvesBegun.Value())
	}
	if s := m.SolveStates(); s != 100 {
		t.Errorf("solve states = %d, want 100", s)
	}

	// A second solve rebases the per-solve state count.
	m.SolveEnd()
	m.SolveBegin()
	m.Flush(10, 0, 0, 0, 0, 1)
	if m.States.Value() != 110 || m.SolveStates() != 10 {
		t.Errorf("after rebase: states=%d solve-states=%d, want 110, 10", m.States.Value(), m.SolveStates())
	}
	if m.SolvesBegun.Value() != 2 || m.SolvesDone.Value() != 1 {
		t.Errorf("solves = %d/%d, want 1/2", m.SolvesDone.Value(), m.SolvesBegun.Value())
	}
	if r.Search() != m {
		t.Error("a registry resolved its search counters twice")
	}
	out := promText(t, r)
	for _, line := range []string{"memverify_search_states_total 110\n", "memverify_search_solve_states 10\n",
		"memverify_address_solves_begun_total 2\n", "memverify_search_peak_depth 7\n"} {
		if !strings.Contains(out, line) {
			t.Errorf("exposition lacks %q:\n%s", line, out)
		}
	}
}

// --- Progress ---

// TestProgressReport drives report directly with controlled clocks so
// the rate is deterministic.
func TestProgressReport(t *testing.T) {
	m := NewRegistry().Search()
	m.SolveBegin()
	m.Flush(640, 30, 70, 0, 0, 9)
	t0 := time.Now()
	var buf bytes.Buffer
	p := &Progress{w: &buf, c: m, limit: 1000, prevAt: t0}
	p.report(t0.Add(2 * time.Second))
	want := "obs: states=640 rate=320/s depth=9 peak=9 memo-hit=30.0% solves=0/1 budget-left=360/1000\n"
	if got := buf.String(); got != want {
		t.Errorf("progress line:\n got %q\nwant %q", got, want)
	}

	// Second tick: rate reflects only the delta; exhausted budget clamps
	// to zero.
	buf.Reset()
	m.Flush(1360, 0, 0, 0, 0, 4)
	p.report(t0.Add(4 * time.Second))
	want = "obs: states=2000 rate=680/s depth=4 peak=9 memo-hit=30.0% solves=0/1 budget-left=0/1000\n"
	if got := buf.String(); got != want {
		t.Errorf("progress line:\n got %q\nwant %q", got, want)
	}

	// Without a limit there is no budget column.
	buf.Reset()
	p.limit = 0
	p.report(t0.Add(6 * time.Second))
	if got := buf.String(); strings.Contains(got, "budget-left") {
		t.Errorf("no-limit line still has budget column: %q", got)
	}
}

// TestProgressStartStop exercises the goroutine lifecycle: Stop is
// idempotent and prints a final line when work happened after the last
// tick.
func TestProgressStartStop(t *testing.T) {
	r := NewRegistry()
	var buf bytes.Buffer
	p := StartProgress(&buf, r, time.Hour, 0)
	r.Search().Flush(5, 0, 0, 0, 0, 1)
	p.Stop()
	p.Stop() // must not panic or double-print
	if got := buf.String(); strings.Count(got, "\n") != 1 || !strings.Contains(got, "states=5") {
		t.Errorf("final line = %q, want exactly one line with states=5", got)
	}

	// No work at all: no final line.
	buf.Reset()
	p = StartProgress(&buf, NewRegistry(), time.Hour, 0)
	p.Stop()
	if buf.Len() != 0 {
		t.Errorf("idle Stop printed %q", buf.String())
	}
}

// --- Collector ---

func TestCollector(t *testing.T) {
	c := NewCollector()
	tr := NewTracer(c)
	ctx := context.Background()

	sp1, sctx := tr.BeginAddr(ctx, "solve", 5)
	sp2, _ := tr.Begin(sctx, "general-search")
	tr.MemoMiss(sp2, 0)
	tr.StateEnter(sp2, 0, 1)
	tr.StateEnter(sp2, 3, 2)
	tr.StateEnter(sp2, 6, 3)
	tr.EagerReads(sp2, 2, 4)
	tr.Backtrack(sp2, 6)
	tr.Backtrack(sp2, 3)
	tr.MemoHit(sp2, 3)
	sp2.End("incoherent", 3)
	sp1.End("incoherent (general-search)", 3)
	spOther, _ := tr.BeginAddr(ctx, "solve", 9)
	spOther.End("coherent (read-map)", 1)

	spans := c.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	s := spans[1]
	if s.Name != "general-search" || s.Parent != spans[0].ID {
		t.Errorf("inner span = %+v", s)
	}
	if s.States != 3 || s.Backtracks != 2 || s.MemoHits != 1 || s.MemoMisses != 1 ||
		s.EagerReads != 4 || s.PeakDepth != 6 || !s.Ended {
		t.Errorf("inner counters = %+v", s)
	}
	if s.Verdict != "incoherent" {
		t.Errorf("verdict = %q", s.Verdict)
	}

	d := s.Describe()
	for _, want := range []string{"general-search", "3 states", "2 backtracks",
		"memo hit-rate 50.0%", "4 eager reads", "peak depth 6", "-> incoherent"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe() = %q, missing %q", d, want)
		}
	}
	// Backtracks at depths 6 and 3: buckets bits.Len(6)=3 ("4-7") and
	// bits.Len(3)=2 ("2-3").
	if h := s.BacktrackHistogram(); h != "depth 2-3: 1, depth 4-7: 1" {
		t.Errorf("backtrack histogram = %q", h)
	}
	if h := (&SpanSummary{}).BacktrackHistogram(); h != "" {
		t.Errorf("empty histogram = %q", h)
	}

	for5 := c.ForAddr(5)
	if len(for5) != 1 || for5[0].Addr != 5 {
		t.Errorf("ForAddr(5) = %+v", for5)
	}
	if got := c.ForAddr(9); len(got) != 1 || got[0].Verdict != "coherent (read-map)" {
		t.Errorf("ForAddr(9) = %+v", got)
	}
	if got := c.ForAddr(42); len(got) != 0 {
		t.Errorf("ForAddr(42) = %+v, want empty", got)
	}
}

func TestDepthBuckets(t *testing.T) {
	cases := []struct{ d, want int }{
		{-3, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 14, 15}, {1 << 20, 15},
	}
	for _, c := range cases {
		if got := DepthBucket(c.d); got != c.want {
			t.Errorf("DepthBucket(%d) = %d, want %d", c.d, got, c.want)
		}
	}
	labels := []struct {
		i    int
		want string
	}{{0, "0"}, {1, "1"}, {2, "2-3"}, {3, "4-7"}, {4, "8-15"}}
	for _, c := range labels {
		if got := BucketLabel(c.i); got != c.want {
			t.Errorf("BucketLabel(%d) = %q, want %q", c.i, got, c.want)
		}
	}
}

// --- CounterSet ---

type fakeStats struct{}

func (fakeStats) Counters() []StatCounter {
	return []StatCounter{{"hits", 12}, {"misses", 3}, {"wb", 0}}
}

func TestFormatCounters(t *testing.T) {
	if got := FormatCounters(fakeStats{}); got != "hits=12 misses=3 wb=0" {
		t.Errorf("FormatCounters = %q", got)
	}
}

// --- Kind names ---

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindSpanBegin:  "span_begin",
		KindSpanEnd:    "span_end",
		KindStateEnter: "state_enter",
		KindSAT:        "sat",
		Kind(200):      "unknown",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// --- Debug endpoint ---

func TestDebugHandler(t *testing.T) {
	r := NewRegistry()
	r.Search().Flush(7, 0, 0, 0, 0, 2)
	h := DebugHandler(r)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/vars status = %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, `"memverify"`) {
		t.Errorf("/debug/vars missing memverify var: %s", body)
	}
	if !strings.Contains(body, `"memverify_search_states_total":7`) {
		t.Errorf("/debug/vars missing states counter: %s", body)
	}
	var vars map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Errorf("/debug/vars is not JSON: %v", err)
	} else if _, ok := vars["memstats"]; !ok {
		t.Errorf("/debug/vars lost expvar's own variables: %s", body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if !strings.Contains(rec.Body.String(), "/debug/pprof/") {
		t.Errorf("index page = %q", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != 200 {
		t.Errorf("/debug/pprof/cmdline status = %d", rec.Code)
	}
}

func TestServeDebug(t *testing.T) {
	srv, err := ServeDebug("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatalf("ServeDebug: %v", err)
	}
	defer srv.Close()
	if srv.Addr == "" || strings.HasSuffix(srv.Addr, ":0") {
		t.Errorf("server addr = %q, want a bound port", srv.Addr)
	}
}
