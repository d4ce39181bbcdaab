package main

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// reqIDPrefix is a per-process random prefix, so ids minted by
// successive server runs stay distinct in aggregated logs.
var reqIDPrefix = func() string {
	var b [4]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}()

var reqIDSeq atomic.Int64

// newRequestID returns the id for one request: a client-supplied
// X-Request-ID when present (so ids minted upstream of a proxy survive
// end to end), otherwise "prefix-seq".
func newRequestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); id != "" && len(id) <= 128 {
		return id
	}
	return fmt.Sprintf("%s-%06d", reqIDPrefix, reqIDSeq.Add(1))
}

// reqTimings accumulates one request's per-stage durations. Queue and
// solve are summed across shards (which run concurrently, hence the
// atomics) and also tracked as per-shard maxima: the sum is the compute
// the request consumed, the max is its critical path through the fleet.
type reqTimings struct {
	parse    atomic.Int64
	cache    atomic.Int64
	merge    atomic.Int64
	queueSum atomic.Int64
	queueMax atomic.Int64
	solveSum atomic.Int64
	solveMax atomic.Int64
	shards   atomic.Int64
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (t *reqTimings) addParse(d time.Duration) { t.parse.Add(int64(d)) }
func (t *reqTimings) addCache(d time.Duration) { t.cache.Add(int64(d)) }
func (t *reqTimings) addMerge(d time.Duration) { t.merge.Add(int64(d)) }

func (t *reqTimings) addQueue(d time.Duration) {
	t.queueSum.Add(int64(d))
	atomicMax(&t.queueMax, int64(d))
}

func (t *reqTimings) addSolve(d time.Duration) {
	t.solveSum.Add(int64(d))
	atomicMax(&t.solveMax, int64(d))
	t.shards.Add(1)
}

// ms converts nanoseconds to float milliseconds.
func ms(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }

// debugMap renders the stage breakdown echoed under ?debug=timings and
// stored with slow requests.
func (t *reqTimings) debugMap(total time.Duration) map[string]float64 {
	return map[string]float64{
		"parse_ms":          ms(t.parse.Load()),
		"cache_ms":          ms(t.cache.Load()),
		"queue_wait_ms":     ms(t.queueSum.Load()),
		"queue_wait_max_ms": ms(t.queueMax.Load()),
		"solve_ms":          ms(t.solveSum.Load()),
		"solve_max_ms":      ms(t.solveMax.Load()),
		"merge_ms":          ms(t.merge.Load()),
		"shards":            float64(t.shards.Load()),
		"total_ms":          ms(int64(total)),
	}
}

// reqRecord is the JSON shape of one request in GET /debug/requests —
// both the in-flight table (Stage, AgeMS live) and the slow-request
// ring (DurationMS, Verdict, Timings final).
type reqRecord struct {
	ID         string             `json:"id"`
	Remote     string             `json:"remote,omitempty"`
	Model      string             `json:"model,omitempty"`
	Stage      string             `json:"stage,omitempty"`
	AgeMS      float64            `json:"age_ms,omitempty"`
	DurationMS float64            `json:"duration_ms,omitempty"`
	Verdict    string             `json:"verdict,omitempty"`
	Timings    map[string]float64 `json:"timings,omitempty"`
}

// liveReq is one admitted, not-yet-answered request. Mutable fields
// are guarded by the owning table's mutex.
type liveReq struct {
	id     string
	remote string
	start  time.Time
	model  string
	stage  string
}

// requestTable tracks every in-flight request and keeps the N slowest
// completed ones (with their stage breakdowns) — the data behind
// GET /debug/requests, so a stuck or slow request can be found and
// blamed on a stage without restarting the server. In-flight entries
// are keyed by the request itself, not its id: a client may send the
// same X-Request-ID on two requests at once.
type requestTable struct {
	mu       sync.Mutex
	inflight map[*liveReq]struct{}
	slowest  []reqRecord // sorted by DurationMS descending
	keep     int
}

func newRequestTable(keep int) *requestTable {
	if keep <= 0 {
		keep = 32
	}
	return &requestTable{inflight: make(map[*liveReq]struct{}), keep: keep}
}

// start admits a request into the in-flight table.
func (t *requestTable) start(id, remote string) *liveReq {
	lr := &liveReq{id: id, remote: remote, start: time.Now(), stage: "parse"}
	t.mu.Lock()
	t.inflight[lr] = struct{}{}
	t.mu.Unlock()
	return lr
}

// setStage marks the request's current stage.
func (t *requestTable) setStage(lr *liveReq, stage string) {
	if lr == nil {
		return
	}
	t.mu.Lock()
	lr.stage = stage
	t.mu.Unlock()
}

// setModel records the parsed model for display.
func (t *requestTable) setModel(lr *liveReq, model string) {
	if lr == nil {
		return
	}
	t.mu.Lock()
	lr.model = model
	t.mu.Unlock()
}

// finish removes the request from the in-flight table and, when it
// ranks among the slowest seen, records it with its stage breakdown.
func (t *requestTable) finish(lr *liveReq, verdict string, timings map[string]float64) {
	if lr == nil {
		return
	}
	dur := time.Since(lr.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.inflight, lr)
	durMS := ms(int64(dur))
	if len(t.slowest) == t.keep && durMS <= t.slowest[len(t.slowest)-1].DurationMS {
		return
	}
	rec := reqRecord{
		ID:         lr.id,
		Remote:     lr.remote,
		Model:      lr.model,
		DurationMS: durMS,
		Verdict:    verdict,
		Timings:    timings,
	}
	i := sort.Search(len(t.slowest), func(i int) bool { return t.slowest[i].DurationMS < durMS })
	t.slowest = append(t.slowest, reqRecord{})
	copy(t.slowest[i+1:], t.slowest[i:])
	t.slowest[i] = rec
	if len(t.slowest) > t.keep {
		t.slowest = t.slowest[:t.keep]
	}
}

// snapshot renders both tables, in-flight ordered oldest first.
func (t *requestTable) snapshot() (inflight, slowest []reqRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	inflight = make([]reqRecord, 0, len(t.inflight))
	for lr := range t.inflight {
		inflight = append(inflight, reqRecord{
			ID:     lr.id,
			Remote: lr.remote,
			Model:  lr.model,
			Stage:  lr.stage,
			AgeMS:  ms(int64(now.Sub(lr.start))),
		})
	}
	sort.Slice(inflight, func(i, j int) bool { return inflight[i].AgeMS > inflight[j].AgeMS })
	slowest = append([]reqRecord(nil), t.slowest...)
	return inflight, slowest
}
