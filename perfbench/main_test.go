package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"memverify/internal/memory"
	"memverify/internal/workload"
)

// The relay check probe relies on GenerateRelay's documented generation
// order being a witness; this pins it.
func TestRelayWitness(t *testing.T) {
	for _, phantom := range []bool{false, true} {
		cfg := relayConfig(phantom, true)
		exec := workload.GenerateRelay(cfg)
		err := memory.CheckCoherent(exec, 0, relayWitness(exec, cfg))
		if (err == nil) != !phantom {
			t.Errorf("phantom=%v: witness check = %v", phantom, err)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// including its extrapolation for tiny samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name       string
		base, head []float64
		higher     bool
		want       string
	}{
		{"same", steady, steady, false, "unchanged"},
		{"faster", steady, scale(steady, 0.8), false, "improved"},
		{"slower", steady, scale(steady, 1.2), false, "regressed"},
		{"slower within bound", steady, scale(steady, 1.05), false, "unchanged"},
		{"throughput down", steady, scale(steady, 0.8), true, "regressed"},
		{"noisy", steady, []float64{60, 140, 70, 130, 80, 120, 100, 90, 110, 100}, false, "unresolved"},
	} {
		if got := judge(c.base, c.head, 0.1, c.higher).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// buildBinaries builds perfbench and memverifyd into dir.
func buildBinaries(t *testing.T, dir string) (bench, server string) {
	t.Helper()
	bench, server = filepath.Join(dir, "perfbench"), filepath.Join(dir, "memverifyd")
	for _, args := range [][]string{{"-o", bench, "."}, {"-o", server, "memverify/cmd/memverifyd"}} {
		cmd := exec.Command("go", append([]string{"build"}, args...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", args, err, out)
		}
	}
	return bench, server
}

// TestSuiteQuick runs the whole suite on small inputs and checks that
// every end-to-end metric of BENCHMARK.json is reported for every
// workload with no failures, and that a planted wrong known answer makes
// each workload exit non-zero, which proves the answer check is live.
func TestSuiteQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and starts memverifyd")
	}
	def, err := loadBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bench, server := buildBinaries(t, dir)
	out := filepath.Join(dir, "suite.json")
	cmd := exec.Command(bench, "--suite", "--quick", "--seed", "1", "--seconds", "1", "--memverifyd", server, "--out", out)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("suite: %v\n%s", err, msg)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var sr suiteReport
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	for _, w := range def.Workloads {
		e := sr.Workloads[w.Name]
		if e == nil || e.Untraced == nil {
			t.Errorf("%s: no report", w.Name)
			continue
		}
		u := e.Untraced
		if !u.Correct || u.Failed != 0 || u.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, u.Correct, u.Attempted, u.Failed)
		}
		for _, m := range def.EndToEnd {
			got, ok := u.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || got.Value <= 0 {
				t.Errorf("%s: metric %s = %+v (present %v), want unit %s and a positive value", w.Name, m.Name, got, ok, m.Unit)
			}
		}
	}

	for _, w := range def.Workloads {
		cmd := exec.Command(bench, "--workload", w.Name, "--quick", "--seed", "1", "--seconds", "0.3",
			"--memverifyd", server, "--plant-wrong-answer")
		stdout, err := cmd.Output()
		if err == nil {
			t.Errorf("%s: a planted wrong answer still exited 0", w.Name)
			continue
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var res result
		if json.Unmarshal([]byte(lines[len(lines)-1]), &res) != nil || res.Correct {
			t.Errorf("%s: want a result line with correct=false, got %q", w.Name, stdout)
		}
	}
}

// A traced run reports every per-layer metric of BENCHMARK.json.
func TestTracedQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and starts memverifyd")
	}
	def, err := loadBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bench, server := buildBinaries(t, dir)
	for _, w := range []string{"reductions", "service-repeat"} {
		spans := filepath.Join(dir, w+".jsonl")
		cmd := exec.Command(bench, "--workload", w, "--quick", "--seed", "2", "--seconds", "0.5", "--trace", "1",
			"--memverifyd", server, "--spans", spans)
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: result line: %v", w, err)
		}
		if len(res.Metrics) != len(def.PerLayer) {
			t.Errorf("%s: %d metrics, BENCHMARK.json lists %d per-layer metrics", w, len(res.Metrics), len(def.PerLayer))
		}
		for _, m := range def.PerLayer {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s = %+v (present %v), want unit %s", w, m.Name, got, ok, m.Unit)
			}
		}
		data, err := os.ReadFile(spans)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			var s span
			if err := json.Unmarshal([]byte(line), &s); err != nil || s.Name == "" || s.End < s.Start {
				t.Fatalf("%s: span line %d invalid (%v): %s", w, i+1, err, line)
			}
		}
	}
}
