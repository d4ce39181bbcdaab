package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// suiteReport is what --suite writes: every workload's report, stamped
// once with the environment.
type suiteReport struct {
	Schema    string                 `json:"schema"`
	Env       env                    `json:"env"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Quick     bool                   `json:"quick,omitempty"`
	WallS     float64                `json:"wall_s"`
	Workloads map[string]*suiteEntry `json:"workloads"`
}

type suiteEntry struct {
	Untraced *report `json:"untraced"`
	Traced   *report `json:"traced,omitempty"`
	// TracingOverhead is how much slower the traced loop ran than the
	// untraced run, in percent of the untraced number.
	TracingOverhead map[string]float64 `json:"tracing_overhead_pct,omitempty"`
}

// runSuite runs every workload in a child process of its own (so peak
// RSS and GC state belong to one workload), untraced and, with --trace
// 1, traced as well, then prints every end-to-end metric.
func runSuite(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "perfbench-suite-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	start := time.Now()
	sr := &suiteReport{Schema: reportSchema, Env: currentEnv(), Seed: o.seed, Seconds: o.seconds, Quick: o.quick,
		Workloads: map[string]*suiteEntry{}}
	var errs []error
	for _, w := range workloads {
		e := &suiteEntry{}
		sr.Workloads[w.name] = e
		if e.Untraced, err = child(self, tmp, o, w.name, false); err != nil {
			errs = append(errs, err)
			continue
		}
		if !o.trace {
			continue
		}
		if e.Traced, err = child(self, tmp, o, w.name, true); err != nil {
			errs = append(errs, err)
			continue
		}
		e.TracingOverhead = map[string]float64{
			"ops_per_s": 100 * (1 - e.Traced.Detail["traced_ops_per_s"]/e.Untraced.Metrics["ops_per_s"].Value),
			"p50_ms":    100 * (e.Traced.Detail["traced_p50_ms"]/e.Untraced.Metrics["p50_ms"].Value - 1),
		}
	}
	sr.WallS = time.Since(start).Seconds()
	printSuite(sr)
	if o.out != "" {
		data, err := json.MarshalIndent(sr, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return errors.Join(errs...)
}

// child runs one workload as a child process and reads its report.
func child(self, tmp string, o options, name string, traced bool) (*report, error) {
	mode, traceArg := "untraced", "0"
	if traced {
		mode, traceArg = "traced", "1"
	}
	out := filepath.Join(tmp, name+"-"+mode+".json")
	args := []string{"--workload", name, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", traceArg,
		"--memverifyd", o.memverifyd, "--out", out}
	if traced && o.spans != "" {
		args = append(args, "--spans", filepath.Join(o.spans, name+".jsonl"))
	}
	if o.quick {
		args = append(args, "--quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	runErr := cmd.Run()
	data, err := os.ReadFile(out)
	if err != nil {
		return nil, fmt.Errorf("%s (%s): no report: %v", name, mode, errors.Join(runErr, err))
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s (%s): %w", name, mode, err)
	}
	if runErr != nil {
		return &rep, fmt.Errorf("%s (%s): %w", name, mode, runErr)
	}
	return &rep, nil
}

// printSuite prints the end-to-end metrics of every workload, then the
// tracing overhead where a traced run was made.
func printSuite(sr *suiteReport) {
	fmt.Printf("perfbench suite: seed %d, %g s per run, nproc %d, GOMAXPROCS %d, %s, rev %s, %.0f s wall\n",
		sr.Seed, sr.Seconds, sr.Env.NumCPU, sr.Env.GOMAXPROCS, sr.Env.GoVersion, sr.Env.GitRev, sr.WallS)
	for _, w := range workloads {
		e := sr.Workloads[w.name]
		if e == nil || e.Untraced == nil {
			fmt.Printf("%-15s no result\n", w.name)
			continue
		}
		u := e.Untraced
		fmt.Printf("%-15s correct=%v attempted=%d failed=%d samples=%d wall=%.1fs\n",
			w.name, u.Correct, u.Attempted, u.Failed, u.Samples["latency"], u.WallS)
		for _, m := range endToEndMetrics {
			v, ok := u.Metrics[m]
			if !ok {
				fmt.Printf("  %-12s missing\n", m)
				continue
			}
			fmt.Printf("  %-12s %14.4f %s\n", m, v.Value, v.Unit)
		}
		if e.TracingOverhead != nil {
			for _, k := range []string{"ops_per_s", "p50_ms"} {
				fmt.Printf("  tracing overhead %-9s %+.1f%%\n", k, e.TracingOverhead[k])
			}
		}
	}
}

// endToEndMetrics are the metrics an untraced run reports, in print
// order; BENCHMARK.json lists the same names with their bounds.
var endToEndMetrics = []string{"ops_per_s", "p50_ms", "p90_ms", "peak_rss_mb", "setup_s"}
