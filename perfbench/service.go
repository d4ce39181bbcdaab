package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// controlClient makes the health and stats calls, which must not hang a
// run if the server stops answering.
var controlClient = &http.Client{Timeout: 10 * time.Second}

// server is a memverifyd child process on a loopback port.
type server struct {
	cmd  *exec.Cmd
	base string
	// drained is closed once the child's standard output hits EOF,
	// which must happen before cmd.Wait.
	drained chan struct{}
}

// startServer starts memverifyd with its default flags (a worker per
// CPU) on a free loopback port and waits until it answers.
func startServer(path string) (*server, error) {
	cmd := exec.Command(path, "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting memverifyd: %w", err)
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	br := bufio.NewReader(stdout)
	line, err := br.ReadString('\n')
	go func() {
		defer close(s.drained)
		io.Copy(io.Discard, br)
	}()
	const banner = "memverifyd listening on "
	i := strings.Index(line, banner)
	if err != nil || i < 0 {
		s.stop()
		return nil, fmt.Errorf("memverifyd did not report its address (read %q: %v)", line, err)
	}
	s.base = strings.Fields(line[i+len(banner):])[0]
	resp, err := controlClient.Get(s.base + "/v1/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("memverifyd health check: %w", err)
	}
	return s, nil
}

// stop shuts the server down gracefully, killing it if it has not
// exited within ten seconds, and waits for it.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.drained:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.drained
	}
	s.cmd.Wait()
}

// peakRSSMB reads the server's peak resident set size (VmHWM) from /proc.
func (s *server) peakRSSMB() (float64, error) {
	path := fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid)
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err != nil {
				return 0, fmt.Errorf("%s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// stats reads GET /v1/stats.
func (s *server) stats() (map[string]float64, error) {
	resp, err := controlClient.Get(s.base + "/v1/stats")
	if err != nil {
		return nil, fmt.Errorf("reading /v1/stats: %w", err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	out := map[string]float64{}
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// reqSample is one request as the load generator saw it.
type reqSample struct {
	id              string
	due, sent, done time.Time
	ops             int
	cached          bool
	addrs           int
	timings         map[string]float64
	failed          bool
	wrong           string
}

// loadClient posts traces to /v1/verify over at most conns connections.
type loadClient struct {
	http *http.Client
	url  string
}

func newLoadClient(base string, conns int, strategy string, timings bool) *loadClient {
	q := url.Values{}
	if strategy != "" {
		q.Set("strategy", strategy)
	}
	if timings {
		q.Set("debug", "timings")
	}
	u := base + "/v1/verify"
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &loadClient{http: &http.Client{Transport: tr, Timeout: time.Minute}, url: u}
}

func (c *loadClient) close() { c.http.CloseIdleConnections() }

// do posts one trace as raw text and checks the verdict against the
// input's known answer. An undecided verdict or a non-200 answer (a
// shed request is a 429) fails the request.
func (c *loadClient) do(in *input) reqSample {
	s := reqSample{id: in.id, ops: in.ops, sent: time.Now()}
	resp, err := c.http.Post(c.url, "text/plain", bytes.NewReader(in.text))
	if err != nil {
		s.done, s.failed = time.Now(), true
		return s
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Now()
	if err != nil || resp.StatusCode != http.StatusOK {
		s.failed = true
		return s
	}
	var vr struct {
		Verdict string             `json:"verdict"`
		Cached  bool               `json:"cached"`
		Addrs   []json.RawMessage  `json:"addrs"`
		Timings map[string]float64 `json:"timings"`
	}
	if err := json.Unmarshal(body, &vr); err != nil {
		s.failed = true
		return s
	}
	s.cached, s.addrs, s.timings = vr.Cached, len(vr.Addrs), vr.Timings
	switch vr.Verdict {
	case "coherent", "incoherent":
		if (vr.Verdict == "coherent") != in.want {
			s.wrong = fmt.Sprintf("%s: verdict %s, known answer coherent=%v", in.id, vr.Verdict, in.want)
		}
	default:
		s.failed = true
	}
	return s
}

// openLoop sends n requests on a fixed schedule, one every 1/rate
// seconds, from conns goroutines. Each request's latency is taken from
// when it was due, so a stall also charges the requests queued behind
// it, and sent-minus-due is the generator's own lag.
func (c *loadClient) openLoop(next func(k int) *input, n int, rate float64, conns int) []reqSample {
	samples := make([]reqSample, n)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	var k atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(k.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				time.Sleep(time.Until(due))
				s := c.do(next(i))
				s.due = due
				samples[i] = s
			}
		}()
	}
	wg.Wait()
	return samples
}

// closedLoop keeps conns requests in flight for d: each goroutine sends
// its next request when the previous one answers. next returns nil when
// it has no more inputs. It returns the samples and the elapsed time
// until the last answer.
func (c *loadClient) closedLoop(next func(k int) *input, d time.Duration, conns int) ([]reqSample, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var k atomic.Int64
	per := make([][]reqSample, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				in := next(int(k.Add(1) - 1))
				if in == nil {
					return
				}
				per[w] = append(per[w], c.do(in))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []reqSample
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}

// serviceRate is the open-loop arrival rate: about a third of what a
// 2-vCPU host saturates at on the fresh mix, so queueing is visible in
// the tail without the backlog growing.
const serviceRate = 1000

// closedPerCPU is the closed-loop request rate per CPU the fresh
// workload generates distinct traces for. A 2-vCPU host saturates near
// 1400 requests/s per CPU; should the closed loop still run out, it ends
// early and the report's closed_loop_s shows it.
const closedPerCPU = 2500

// repeatPool is the service-repeat pool size, the loadgen's CI
// re-verification mix.
const repeatPool = 24

// poolIndex is request k's uniform draw from the repeat pool, a
// splitmix64 hash of the seed and k.
func poolIndex(seed int64, k int) int {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % repeatPool)
}

// service runs service-fresh (every request a distinct trace, so the
// result cache never hits) or service-repeat (requests drawn from a
// 24-trace pool, so nearly all hit) against a memverifyd process. After
// an untimed warm-up, 40% of the measured seconds go to the open loop
// and 60% to the closed loop, whose saturated throughput is the noisier
// of the two.
func (r *run) service(fresh bool) error {
	conns := runtime.NumCPU()
	warm := time.Second
	if r.opts.quick {
		warm = 200 * time.Millisecond
	}
	measured := time.Duration(r.opts.seconds * float64(time.Second))
	open, closed := measured*4/10, measured*6/10
	nWarm := int(warm.Seconds() * serviceRate)
	nOpen := int(open.Seconds() * serviceRate)
	nFresh := nWarm + nOpen + int(closed.Seconds()*closedPerCPU)*conns
	var (
		srv  *server
		pool []input
	)
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	// A set-up is generating the requests and starting the server.
	if err := r.timeSetup(func() error {
		rng := rand.New(rand.NewSource(r.opts.seed))
		n := repeatPool
		if fresh {
			n = nFresh
		}
		var err error
		if pool, err = serviceInputs(rng, n); err != nil {
			return err
		}
		srv, err = startServer(r.opts.memverifyd)
		return err
	}, func() {
		srv.stop()
		srv = nil
	}); err != nil {
		return err
	}
	// Request k of the run: fresh traces are used once each, in order;
	// repeat requests draw from the pool by a seeded hash of k, so the
	// draw never runs out however fast the closed loop goes.
	nth := func(k int) *input {
		if !fresh {
			return &pool[poolIndex(r.opts.seed, k)]
		}
		if k >= len(pool) {
			return nil
		}
		return &pool[k]
	}
	if r.opts.plantWrong {
		nth(0).want = !nth(0).want
	}
	cl := newLoadClient(srv.base, conns, "", r.opts.trace)
	defer cl.close()
	before, err := srv.stats()
	if err != nil {
		return err
	}
	warmS := cl.openLoop(nth, nWarm, serviceRate, conns)
	openS := cl.openLoop(func(k int) *input { return nth(nWarm + k) }, nOpen, serviceRate, conns)
	closedS, elapsed := cl.closedLoop(func(k int) *input { return nth(nWarm + nOpen + k) }, closed, conns)
	after, err := srv.stats()
	if err != nil {
		return err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	all := append(append(append([]reqSample(nil), warmS...), openS...), closedS...)
	r.checkSamples(all)
	r.rep.Attempted = len(openS) + len(closedS)
	r.rep.Failed = countFailed(openS) + countFailed(closedS)

	var lat, lags []float64
	for _, s := range openS {
		lags = append(lags, ms(s.sent.Sub(s.due)))
		if !s.failed {
			lat = append(lat, ms(s.done.Sub(s.due)))
		}
	}
	var closedOps float64
	ok := 0
	for _, s := range closedS {
		if !s.failed {
			closedOps += float64(s.ops)
			ok++
		}
	}
	r.latencyMetrics(lat, closedOps/elapsed.Seconds())
	r.rep.Samples["closed_loop"] = len(closedS)
	r.rep.Detail["closed_loop_s"] = elapsed.Seconds()
	r.rep.Detail["saturated_rps"] = float64(ok) / elapsed.Seconds()
	r.rep.Detail["open_loop_rate"] = serviceRate
	r.rep.Detail["connections"] = float64(conns)
	lagP99 := quantile(lags, 0.99)
	r.rep.Detail["send_lag_p99_ms"] = lagP99
	if !r.opts.trace {
		r.set("peak_rss_mb", "MB", rss)
	} else {
		for i := range all {
			s := &all[i]
			r.rec.add("request", s.id, 0, s.sent, s.done, s.timings)
		}
		for i := 0; i < probeSample && i < len(pool); i++ {
			r.probe(&pool[i], true)
		}
		r.clientLayerMetrics()
		r.serverLayerMetrics(all, before, after)
	}
	if len(r.rep.Wrong) == 0 && lagP99 > maxSendLagMS {
		return fmt.Errorf("invalid run: generator send lag p99 %.2f ms exceeds %v ms; the numbers would measure the generator, not the server", lagP99, maxSendLagMS)
	}
	return nil
}

// maxSendLagMS is the generator send-lag p99 above which a service run
// is invalid: the generator fell a tenth of a second behind its
// schedule. Calibration runs on a 2-vCPU host had a median of 1.2 ms and
// a maximum of 18 ms, when a host stall held up the whole box.
const maxSendLagMS = 100.0

func countFailed(ss []reqSample) int {
	n := 0
	for _, s := range ss {
		if s.failed {
			n++
		}
	}
	return n
}

// checkSamples records every request whose verdict disagreed with the
// known answer.
func (r *run) checkSamples(ss []reqSample) {
	for _, s := range ss {
		if s.wrong != "" {
			r.wrongf("%s", s.wrong)
		}
	}
}

// serverLayerMetrics reports memverifyd's stages from the per-request
// ?debug=timings breakdowns and the /v1/stats deltas over the run.
func (r *run) serverLayerMetrics(ss []reqSample, before, after map[string]float64) {
	var parse, cache, queue, solve, merge, shards, overhead []float64
	solvedAddrs := 0.0
	for _, s := range ss {
		if s.failed || s.timings == nil {
			continue
		}
		t := s.timings
		parse = append(parse, t["parse_ms"])
		cache = append(cache, t["cache_ms"])
		overhead = append(overhead, ms(s.done.Sub(s.sent))-t["total_ms"])
		if t["shards"] > 0 {
			queue = append(queue, t["queue_wait_ms"])
			solve = append(solve, t["solve_ms"])
			merge = append(merge, t["merge_ms"])
			shards = append(shards, t["shards"])
		}
		if !s.cached {
			solvedAddrs += float64(s.addrs)
		}
	}
	q := func(xs []float64, p float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return quantile(xs, p)
	}
	delta := func(k string) float64 { return after[k] - before[k] }
	r.set("memverifyd.parse_ms", "ms", q(parse, 0.5))
	r.set("memverifyd.parse_p99_ms", "ms", q(parse, 0.99))
	r.set("memverifyd.cache_ms", "ms", q(cache, 0.5))
	r.set("memverifyd.cache_hit_ratio", "ratio", ratio(delta("cache_hits"), delta("cache_hits")+delta("cache_misses")))
	r.set("memverifyd.queue_wait_ms", "ms", q(queue, 0.5))
	r.set("memverifyd.queue_wait_p99_ms", "ms", q(queue, 0.99))
	r.set("memverifyd.solve_ms", "ms", q(solve, 0.5))
	r.set("memverifyd.solve_p99_ms", "ms", q(solve, 0.99))
	r.set("memverifyd.merge_ms", "ms", q(merge, 0.5))
	r.set("memverifyd.batched_ratio", "ratio", ratio(delta("batched_solves"), solvedAddrs))
	r.set("memverifyd.shards", "count", mean(shards))
	r.set("memverifyd.degraded", "count", delta("degraded"))
	r.set("memverifyd.shed", "count", delta("shed"))
	r.set("http.overhead_ms", "ms", q(overhead, 0.5))
	r.rep.Samples["server_requests"] = len(parse)
	r.rep.Samples["server_solved_requests"] = len(solve)
}
