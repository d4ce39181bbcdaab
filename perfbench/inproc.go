package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"memverify/internal/coherence"
	"memverify/internal/memory"
	"memverify/internal/solver"
	"memverify/internal/trace"
)

// run is the state of one workload run.
type run struct {
	opts options
	// rec records spans in a traced run and is nil otherwise.
	rec *recorder
	rep *report
}

func (r *run) wrongf(format string, args ...any) {
	r.rep.Wrong = append(r.rep.Wrong, fmt.Sprintf(format, args...))
}

func (r *run) set(name, unit string, v float64) {
	r.rep.Metrics[name] = metric{Value: v, Unit: unit}
}

// A run sets up at least minSetups times, and more while the set-ups
// have taken less than setupBudget, up to maxSetups; setup_s is their
// median. A set-up of a few milliseconds (starting memverifyd) is
// mostly process-start jitter, which a median of three does not settle.
const (
	minSetups   = 3
	maxSetups   = 21
	setupBudget = time.Second
)

// timeSetup runs setup repeatedly, keeping the last result, and reports
// the median wall time as setup_s. Each set-up starts from a collected
// heap; undo, when not nil, releases the previous set-up's resources
// outside the timing.
func (r *run) timeSetup(setup func() error, undo func()) error {
	var ts []float64
	for len(ts) < maxSetups && (len(ts) < minSetups || sum(ts) < setupBudget.Seconds()) {
		if len(ts) > 0 && undo != nil {
			undo()
		}
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	r.rep.Detail["setup_min_s"] = sortedCopy(ts)[0]
	r.rep.Samples["setup_s"] = len(ts)
	if !r.opts.trace {
		r.set("setup_s", "s", median(ts))
	}
	return nil
}

// verdict is the path a vmcheck user pays for: trace bytes in, verdict
// out. It returns the elapsed time and whether the run decided. The
// verdict, and every ACCEPT's certificate, are checked against the
// input's known answer after the clock stops.
func (r *run) verdict(rec *recorder, v *coherence.Verifier, in *input) (time.Duration, bool) {
	root := rec.begin("verdict", in.id, 0)
	t0 := time.Now()
	sp := rec.begin("trace.read", in.id, root)
	tr, err := trace.Read(bytes.NewReader(in.text))
	rec.end(sp)
	if err != nil {
		rec.end(root)
		r.wrongf("%s: generated trace rejected: %v", in.id, err)
		return 0, false
	}
	sp = rec.begin("coherence.verify", in.id, root)
	rep, err := v.Verify(context.Background(), tr.Exec)
	rec.end(sp)
	d := time.Since(t0)
	rec.end(root)
	rec.attr(root, "bytes", float64(len(in.text)))
	if err != nil || rep.Verdict == coherence.VerdictUnknown {
		return d, false
	}
	specialists := 0
	for _, ar := range rep.Addrs {
		if ar.Result != nil && isSpecialist(ar.Result.Algorithm) {
			specialists++
		}
	}
	rec.attr(root, "addrs", float64(len(rep.Addrs)))
	rec.attr(root, "specialist", float64(specialists))
	if got := rep.Coherent(); got != in.want {
		r.wrongf("%s: verdict %v, known answer coherent=%v", in.id, rep.Verdict, in.want)
		return d, true
	}
	if rep.Coherent() {
		for _, ar := range rep.Addrs {
			if err := memory.CheckCoherent(tr.Exec, ar.Addr, ar.Result.Schedule); err != nil {
				r.wrongf("%s: ACCEPT certificate for address %d fails: %v", in.id, ar.Addr, err)
			}
		}
	}
	return d, true
}

// isSpecialist reports whether an algorithm is one of the polynomial
// Figure 5.3 specialists the auto strategy dispatches to.
func isSpecialist(alg string) bool {
	switch alg {
	case "read-map", "single-op", "rmw-euler":
		return true
	}
	return false
}

// loop verifies inputs in order, cycling, until the verdicts have taken
// the run's measured seconds, after warm untimed verdicts. With gcEach
// every verdict starts from a collected heap, as a fresh vmcheck process
// would. It reports the end-to-end metrics.
func (r *run) loop(v *coherence.Verifier, inputs []input, warm int, gcEach bool) {
	for i := 0; i < warm && len(r.rep.Wrong) == 0; i++ {
		if gcEach {
			runtime.GC()
		}
		r.verdict(nil, v, &inputs[i%len(inputs)])
	}
	var lat []float64
	var busy time.Duration
	ops := 0
	for i := warm; busy.Seconds() < r.opts.seconds && len(r.rep.Wrong) == 0; i++ {
		in := &inputs[i%len(inputs)]
		if gcEach {
			runtime.GC()
		}
		d, ok := r.verdict(r.rec, v, in)
		r.rep.Attempted++
		busy += d
		if !ok {
			r.rep.Failed++
			continue
		}
		lat = append(lat, ms(d))
		ops += in.ops
	}
	r.latencyMetrics(lat, float64(ops)/busy.Seconds())
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil && !r.opts.trace {
		r.set("peak_rss_mb", "MB", float64(ru.Maxrss)/1024)
	}
}

// latencyMetrics reports the median and p90 of per-verdict latencies
// and the throughput, or, in a traced run, keeps them as the traced
// loop's numbers for the tracing overhead. The gated tail is p90: on a
// shared 2-vCPU host the open-loop p99 moved up to threefold between
// runs of one commit, because a handful of host stalls sets it. The
// highest percentile the sample supports, and p99, are recorded too.
func (r *run) latencyMetrics(lat []float64, opsPerS float64) {
	n := len(lat)
	r.rep.Samples["latency"] = n
	if n == 0 {
		return
	}
	name, q := tailPercentile(n)
	r.rep.Detail["tail_"+name+"_ms"] = quantile(lat, q)
	r.rep.Detail["p99_ms"] = quantile(lat, 0.99)
	if r.opts.trace {
		r.rep.Detail["traced_ops_per_s"] = opsPerS
		r.rep.Detail["traced_p50_ms"] = median(lat)
		return
	}
	r.set("ops_per_s", "ops/s", opsPerS)
	r.set("p50_ms", "ms", median(lat))
	r.set("p90_ms", "ms", quantile(lat, 0.9))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// relay runs relay-accept (phantom false) or relay-reject: the one
// 10⁶-op relay trace, verified with the fast strategy as vmcheck
// -strategy fast does.
func (r *run) relay(phantom bool) error {
	var in input
	if err := r.timeSetup(func() (err error) {
		in, err = relayInput(phantom, r.opts.quick)
		return err
	}, nil); err != nil {
		return err
	}
	if r.opts.plantWrong {
		in.want = !in.want
	}
	r.rep.Detail["ops_per_verdict"] = float64(in.ops)
	v := coherence.NewVerifier(solver.WithStrategy(solver.StrategyFast))
	inputs := []input{in}
	r.loop(v, inputs, 1, true)
	if r.rec == nil || len(r.rep.Wrong) > 0 {
		return nil
	}
	runtime.GC()
	r.probe(&inputs[0], false)
	return r.inprocLayers(inputs[:1], "fast")
}

// reductionPool is how many instances a reductions run generates; the
// loop cycles through them if it gets that far.
const reductionPool = 4000

// probeSample is how many inputs a traced run probes layer by layer.
const probeSample = 200

// reductions runs the paper's reduction instances with the default
// (auto) strategy, sequentially.
func (r *run) reductions() error {
	n, warm, probes := reductionPool, 32, probeSample
	if r.opts.quick {
		n, warm, probes = 20, 2, 10
	}
	var inputs []input
	if err := r.timeSetup(func() (err error) {
		inputs, err = reductionInputs(r.opts.seed, n)
		return err
	}, nil); err != nil {
		return err
	}
	if r.opts.plantWrong {
		inputs[0].want = !inputs[0].want
	}
	sat := 0
	for _, in := range inputs {
		if in.want {
			sat++
		}
	}
	r.rep.Detail["satisfiable_share"] = float64(sat) / float64(len(inputs))
	r.loop(coherence.NewVerifier(), inputs, warm, false)
	if r.rec == nil || len(r.rep.Wrong) > 0 {
		return nil
	}
	for i := 0; i < probes && i < len(inputs); i++ {
		r.probe(&inputs[i], false)
	}
	return r.inprocLayers(inputs[:min(probes, len(inputs))], "")
}

// searchProbeStates bounds the standalone exact search. Reduction and
// service instances finish well inside it; on the relay it stops the
// search after a fixed amount of work, which still measures its rate.
const searchProbeStates = 200_000

var (
	// fastProbe runs the fast path alone: StrategyFast never charges
	// MaxStates, so a one-state budget lets it finish and stops an
	// inconclusive address's escalation at its first search state.
	fastProbe = coherence.NewVerifier(solver.WithStrategy(solver.StrategyFast), solver.WithBudget(solver.WithMaxStates(1)))
	// escalateProbe is that escalation alone, timed so the fast path's
	// own saturation time can be split out.
	escalateProbe = coherence.NewVerifier(solver.WithBudget(solver.WithMaxStates(1)))
	exactProbe    = coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithBudget(solver.WithMaxStates(searchProbeStates)))
)

// probe times each layer on its own, outside any verdict span, on one
// input: validate, then per address project, the fast path, the exact
// search and the certificate check. With verdictToo it also runs a
// root verdict span, for the service workloads, whose own loop verifies
// over HTTP.
func (r *run) probe(in *input, verdictToo bool) {
	if verdictToo {
		r.verdict(r.rec, coherence.NewVerifier(), in)
	}
	tr, err := trace.Read(bytes.NewReader(in.text))
	if err != nil {
		r.wrongf("%s: generated trace rejected: %v", in.id, err)
		return
	}
	root := r.rec.begin("probe", in.id, 0)
	defer r.rec.end(root)
	validate, err := r.timed("memory.validate", in.id, root, tr.Exec.Validate)
	if err != nil {
		r.wrongf("%s: generated trace invalid: %v", in.id, err)
		return
	}
	for _, a := range tr.Exec.Addresses() {
		r.probeAddr(tr.Exec, a, in, root, validate)
	}
}

// timed runs fn inside a span and returns its wall time.
func (r *run) timed(name, item string, parent int, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	sp := r.rec.begin(name, item, parent)
	err := fn()
	r.rec.end(sp)
	return time.Since(t0), err
}

// probeAddr probes one address. The fast path's saturation time is what
// is left of its span after the parts the probe times separately: the
// validate and project it starts with, the certificate check it ends an
// ACCEPT with, and the escalation an inconclusive address takes.
func (r *run) probeAddr(exec *memory.Execution, a memory.Addr, in *input, root int, validate time.Duration) {
	ctx, rec := context.Background(), r.rec
	project, _ := r.timed("memory.project", in.id, root, func() error {
		exec.Project(a)
		return nil
	})

	t0 := time.Now()
	fastSpan := rec.begin("coherence.fastpath", in.id, root)
	fast, ferr := fastProbe.SolveAddr(ctx, exec, a)
	rec.end(fastSpan)
	saturation := time.Since(t0) - validate - project
	decided := ferr == nil && fast.Result != nil && fast.Result.Algorithm == "fastpath"
	if decided {
		rec.attr(fastSpan, "decided", 1)
	} else {
		d, _ := r.timed("coherence.escalate", in.id, root, func() error {
			_, err := escalateProbe.SolveAddr(ctx, exec, a)
			return err
		})
		saturation -= d
	}

	sp := rec.begin("coherence.search", in.id, root)
	exact, eerr := exactProbe.SolveAddr(ctx, exec, a)
	rec.end(sp)
	var st solver.Stats
	if be, ok := solver.AsBudgetError(eerr); ok {
		st = be.Stats
	} else if eerr == nil {
		st = exact.Stats
	}
	rec.attr(sp, "states", float64(st.States))
	rec.attr(sp, "memo_hits", float64(st.MemoHits))
	rec.attr(sp, "memo_misses", float64(st.MemoMisses))
	rec.attr(sp, "branches", float64(st.Branches))

	// Check the certificate the fast path re-checks; failing that, the
	// search's; failing that, the construction's witness. A certificate
	// must pass; the witness passes exactly when the input is coherent.
	cert, wantPass := in.witness, in.want
	fastAccept := decided && fast.Verdict == coherence.VerdictCoherent
	switch {
	case fastAccept:
		cert, wantPass = fast.Result.Schedule, true
	case eerr == nil && exact.Verdict == coherence.VerdictCoherent:
		cert, wantPass = exact.Result.Schedule, true
	}
	if cert != nil {
		d, cerr := r.timed("memory.check_coherent", in.id, root, func() error { return memory.CheckCoherent(exec, a, cert) })
		if fastAccept {
			saturation -= d
		}
		if (cerr == nil) != wantPass {
			r.wrongf("%s: certificate check on address %d: %v, want pass=%v", in.id, a, cerr, wantPass)
		}
	}
	rec.attr(fastSpan, "saturation_ms", ms(saturation))
}

// inprocLayers reports the per-layer metrics of an in-process workload:
// first from the recorded spans, then by sending sample to a memverifyd
// process, so the service layers are measured on this workload's inputs
// too. strategy is the strategy the workload uses ("" for the default).
func (r *run) inprocLayers(sample []input, strategy string) error {
	r.clientLayerMetrics()
	// Give the relay's freed heap back before a second process parses it.
	debug.FreeOSMemory()
	srv, err := startServer(r.opts.memverifyd)
	if err != nil {
		return err
	}
	defer srv.stop()
	cl := newLoadClient(srv.base, 1, strategy, true)
	defer cl.close()
	before, err := srv.stats()
	if err != nil {
		return err
	}
	var samples []reqSample
	for i := range sample {
		s := cl.do(&sample[i])
		r.rec.add("request", sample[i].id, 0, s.sent, s.done, s.timings)
		samples = append(samples, s)
	}
	after, err := srv.stats()
	if err != nil {
		return err
	}
	r.checkSamples(samples)
	r.serverLayerMetrics(samples, before, after)
	return nil
}

// clientLayerMetrics reports the layers the benchmark's own spans time.
// Times are means per call; the verdict spans carry the parsed bytes and
// how many addresses a specialist decided.
func (r *run) clientLayerMetrics() {
	get := r.rec.layers()
	read, verdict := get("trace.read"), get("verdict")
	r.set("trace.read_ms", "ms", read.selfMS)
	r.set("trace.read_mb_per_s", "MB/s", ratio(verdict.attrs["bytes"]/(1<<20), read.busyS()))
	r.set("trace.read_alloc_mb", "MB", read.allocMB)
	verify := get("coherence.verify")
	r.set("coherence.verify_ms", "ms", verify.selfMS)
	r.set("coherence.verify_alloc_mb", "MB", verify.allocMB)
	r.set("coherence.specialist_ratio", "ratio", ratio(verdict.attrs["specialist"], verdict.attrs["addrs"]))
	r.set("memory.validate_ms", "ms", get("memory.validate").selfMS)
	project := get("memory.project")
	r.set("memory.project_ms", "ms", project.selfMS)
	r.set("memory.project_alloc_mb", "MB", project.allocMB)
	r.set("memory.check_coherent_ms", "ms", get("memory.check_coherent").selfMS)
	fast := get("coherence.fastpath")
	r.set("coherence.fastpath_ms", "ms", fast.selfMS)
	r.set("coherence.fastpath_decided_ratio", "ratio", ratio(fast.attrs["decided"], float64(fast.n)))
	r.set("coherence.fastpath_saturation_ms", "ms", ratio(fast.attrs["saturation_ms"], float64(fast.n)))
	search := get("coherence.search")
	states := search.attrs["states"]
	r.set("coherence.search_ms", "ms", search.selfMS)
	r.set("coherence.search_states", "count", ratio(states, float64(search.n)))
	r.set("coherence.states_per_s", "1/s", ratio(states, search.busyS()))
	r.set("coherence.memo_hit_ratio", "ratio", ratio(search.attrs["memo_hits"], search.attrs["memo_hits"]+search.attrs["memo_misses"]))
	r.set("coherence.branch_factor", "ratio", ratio(search.attrs["branches"], states))
	r.rep.Samples["probes"] = get("probe").n
	r.rep.Samples["verdict_spans"] = verdict.n
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
