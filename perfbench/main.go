// Command perfbench is memverify's end-to-end benchmark. It measures the
// two ways the system is used, trace bytes → verdict in process (what
// vmcheck does) and POST /v1/verify on a memverifyd process, on five
// workloads that load different layers, and splits the time by layer in
// a separate traced run.
//
// One workload per process, the form BENCHMARK.json's command runs:
//
//	perfbench --workload reductions --seed 1 --seconds 10 --trace 0
//
// prints progress on standard error and, as the last line of standard
// output, one JSON object with the keys correct, attempted, failed and
// metrics. With --trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json; with --trace 1 they are its per-layer metrics, and the
// spans are written as JSONL to --spans. --out writes the full report.
//
// The whole suite, each workload in a child process of its own:
//
//	perfbench --suite --seed 1 [--trace 1] [--out report.json]
//
// Comparing two directories of suite reports, N runs per side, against
// the bounds in BENCHMARK.json:
//
//	perfbench --compare BASE_DIR HEAD_DIR
//
// Every input is generated from --seed and handed to the program as
// trace text only. Every verdict is checked against an answer that comes
// from the input's construction or from a SAT oracle, never from the
// verifier; a wrong verdict makes the run exit 1. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// reportSchema versions the report format.
const reportSchema = "memverify-perfbench/v1"

// options are the command-line settings of one run.
type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	spans      string
	out        string
	memverifyd string
	benchmark  string
	quick      bool
	// plantWrong flips the known answer of the first input, so a run
	// that still passes would prove the answer check dead.
	plantWrong bool
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the full record of one workload run, written by --out.
type report struct {
	Schema   string  `json:"schema"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Quick    bool    `json:"quick,omitempty"`
	Env      env     `json:"env"`
	WallS    float64 `json:"wall_s"`
	result
	// Samples is the sample count behind each statistic.
	Samples map[string]int `json:"samples"`
	// Detail holds numbers that are recorded but not gated: the tail
	// percentile the sample supports, saturated request rate, generator
	// send lag, and the traced loop's own end-to-end numbers.
	Detail map[string]float64 `json:"detail"`
	// Wrong lists every verdict that disagreed with the known answer.
	Wrong []string `json:"wrong,omitempty"`
	Spans string   `json:"spans_file,omitempty"`
}

// env stamps a report with what the numbers depend on.
type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GitRev     string `json:"git_rev"`
}

func currentEnv() env {
	return env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GitRev:     gitRev(),
	}
}

// gitRev is the commit of the working directory's repository, or
// "unknown" outside a git checkout. A checkout without its own .git is
// not asked, so an enclosing repository cannot lend it a wrong commit.
func gitRev() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// workloads lists every workload in suite order.
var workloads = []struct {
	name string
	run  func(*run) error
}{
	{"relay-accept", func(r *run) error { return r.relay(false) }},
	{"relay-reject", func(r *run) error { return r.relay(true) }},
	{"reductions", (*run).reductions},
	{"service-fresh", func(r *run) error { return r.service(true) }},
	{"service-repeat", func(r *run) error { return r.service(false) }},
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload: relay-accept, relay-reject, reductions, service-fresh or service-repeat")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured seconds per run (default 10, 2 with --quick)")
	traceFlag := flag.Int("trace", 0, "1 = traced run: report the per-layer metrics and write spans")
	flag.StringVar(&o.spans, "spans", "", "JSONL span file of a traced run (default .bench_build/spans/<workload>-seed<N>.jsonl); with --suite, a directory")
	flag.StringVar(&o.out, "out", "", "write the full JSON report to this file")
	flag.StringVar(&o.memverifyd, "memverifyd", filepath.Join(".bench_build", "bin", "memverifyd"), "memverifyd binary the service workloads start")
	flag.StringVar(&o.benchmark, "benchmark", "BENCHMARK.json", "benchmark definition (metric units, directions and bounds)")
	flag.BoolVar(&o.quick, "quick", false, "small inputs and short phases, for a smoke run")
	flag.BoolVar(&o.plantWrong, "plant-wrong-answer", false, "self-test: flip the first input's known answer; the run must then fail")
	suite := flag.Bool("suite", false, "run every workload, each in its own child process")
	compare := flag.Bool("compare", false, "compare report directories: --compare BASE_DIR HEAD_DIR")
	flag.Parse()
	o.trace = *traceFlag == 1
	if o.seconds == 0 {
		o.seconds = 10
		if o.quick {
			o.seconds = 2
		}
	}

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: --compare needs BASE_DIR and HEAD_DIR")
			os.Exit(2)
		}
		err = runCompare(os.Stdout, o.benchmark, flag.Arg(0), flag.Arg(1))
	case *suite:
		err = runSuite(o)
	case o.workload != "":
		err = runWorkload(o)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runWorkload runs one workload in this process and prints its result
// line. A wrong verdict or an invalid run still prints the line (with
// correct false where a verdict was wrong) but returns an error, so the
// process exits non-zero.
func runWorkload(o options) error {
	var fn func(*run) error
	for _, w := range workloads {
		if w.name == o.workload {
			fn = w.run
		}
	}
	if fn == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	start := time.Now()
	r := &run{
		opts: o,
		rep: &report{
			Schema:   reportSchema,
			Workload: o.workload,
			Seed:     o.seed,
			Seconds:  o.seconds,
			Traced:   o.trace,
			Quick:    o.quick,
			Env:      currentEnv(),
			result:   result{Metrics: map[string]metric{}},
			Samples:  map[string]int{},
			Detail:   map[string]float64{},
		},
	}
	if o.trace {
		r.rec = newRecorder()
	}
	runErr := fn(r)
	rep := r.rep
	rep.WallS = time.Since(start).Seconds()
	rep.Correct = len(rep.Wrong) == 0
	if runErr == nil && !rep.Correct {
		runErr = fmt.Errorf("%d wrong verdicts, first: %s", len(rep.Wrong), rep.Wrong[0])
	}
	if r.rec != nil && runErr == nil {
		path := o.spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		}
		if err := r.rec.writeJSONL(path); err != nil {
			return err
		}
		rep.Spans = path
	}
	if runErr != nil && rep.Correct {
		// The run broke before it measured anything trustworthy: no
		// result line.
		return runErr
	}
	if o.out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	logSummary(rep)
	line, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return runErr
}

// logSummary prints the reported metrics on standard error.
func logSummary(rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s seed %d: correct=%v attempted=%d failed=%d wall %.1fs\n",
		rep.Workload, rep.Seed, rep.Correct, rep.Attempted, rep.Failed, rep.WallS)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
}
