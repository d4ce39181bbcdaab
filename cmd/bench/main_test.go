package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSuiteShape: the suite must cover the Figure 4.1/5.x families.
func TestSuiteShape(t *testing.T) {
	cases, err := buildSuite(false)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"fig41-sat-to-vmc/m=4":           false,
		"fig42-example":                  false,
		"fig51-restricted/m=2":           false,
		"fig52-rmw/m=3":                  false,
		"fig53-constant-processes/n=200": false,
	}
	quick := 0
	for _, c := range cases {
		if _, ok := want[c.name]; ok {
			want[c.name] = true
		}
		if c.quick {
			quick++
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("suite is missing %s", name)
		}
	}
	if quick == 0 {
		t.Error("no quick cases: the CI smoke run would measure nothing")
	}
}

// TestMeasureAndReport runs the one tiny fixture end-to-end and checks
// the emitted JSON parses back into a well-formed report.
func TestMeasureAndReport(t *testing.T) {
	cases, err := buildSuite(true)
	if err != nil {
		t.Fatal(err)
	}
	var tiny *benchCase
	for i := range cases {
		if cases[i].name == "fig42-example" {
			tiny = &cases[i]
		}
	}
	if tiny == nil {
		t.Fatal("fig42-example case missing")
	}
	e, err := measure(*tiny)
	if err != nil {
		t.Fatal(err)
	}
	if e.NsPerOp <= 0 || e.Iterations <= 0 {
		t.Fatalf("degenerate measurement: %+v", e)
	}
	if e.States <= 0 || e.StatesPerSec <= 0 {
		t.Fatalf("solve case lost its state count: %+v", e)
	}
	if e.P50Ns <= 0 || e.P90Ns < e.P50Ns || e.P99Ns < e.P90Ns {
		t.Fatalf("implausible latency quantiles: %+v", e)
	}

	out := filepath.Join(t.TempDir(), "bench.json")
	report := benchReport{Schema: benchSchema, Entries: []benchEntry{e}}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var back benchReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("emitted report is not valid JSON: %v", err)
	}
	if back.Schema != benchSchema || len(back.Entries) != 1 {
		t.Fatalf("report round-trip mangled: %+v", back)
	}
}

// TestFastpathCrossoverQuick runs the -fastpath mode at its quick size
// end to end and checks the crossover invariant the committed
// BENCH_PR9.json evidences at full size: the frontline decides both
// relay variants (with the right verdicts) while the ablated exact
// search exhausts its state budget on both.
func TestFastpathCrossoverQuick(t *testing.T) {
	out := filepath.Join(t.TempDir(), "fastpath.json")
	if err := runFastpath(out, true, func(string, ...any) {}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep fastpathReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("emitted report is not valid JSON: %v", err)
	}
	if rep.Schema != fastpathSchema || len(rep.Entries) != 4 {
		t.Fatalf("report shape: schema=%q entries=%d", rep.Schema, len(rep.Entries))
	}
	byMode := map[string][]fastpathEntry{}
	for _, e := range rep.Entries {
		byMode[e.Mode] = append(byMode[e.Mode], e)
	}
	for i, want := range []string{"coherent", "incoherent"} {
		if got := byMode["fastpath"][i]; got.Verdict != want || got.Rung != "fast" {
			t.Errorf("fastpath entry %d: verdict=%s rung=%s, want %s at fast", i, got.Verdict, got.Rung, want)
		}
	}
	for _, e := range byMode["exact-ablation"] {
		if !e.BudgetExceeded || e.Verdict != "unknown" {
			t.Errorf("ablation on %s answered %q in budget — the instance is too easy to evidence the crossover", e.Name, e.Verdict)
		}
		if e.States < e.MaxStates {
			t.Errorf("ablation on %s stopped at %d states under its %d budget", e.Name, e.States, e.MaxStates)
		}
	}
}
