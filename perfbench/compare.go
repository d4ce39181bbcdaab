package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkDef is the part of BENCHMARK.json perfbench reads: the
// workloads and the metrics with their units, directions and bounds.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(path string) (*benchmarkDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// runValues maps workload → metric → one value per report, in file
// name order, so the i-th base and head runs form a pair.
type runValues map[string]map[string][]float64

// loadReports reads every suite or single-workload report in dir.
func loadReports(dir string) (runValues, int, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, 0, err
	}
	sort.Strings(files)
	out := runValues{}
	add := func(rep *report) {
		if rep == nil || rep.Traced {
			return
		}
		if out[rep.Workload] == nil {
			out[rep.Workload] = map[string][]float64{}
		}
		for name, m := range rep.Metrics {
			out[rep.Workload][name] = append(out[rep.Workload][name], m.Value)
		}
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, 0, err
		}
		var sr suiteReport
		if err := json.Unmarshal(data, &sr); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", f, err)
		}
		if sr.Workloads != nil {
			for _, e := range sr.Workloads {
				add(e.Untraced)
			}
			continue
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", f, err)
		}
		add(&rep)
	}
	return out, len(files), nil
}

// judgement is the comparison of one (metric, workload) pair.
type judgement struct {
	verdict          string
	baseMed, headMed float64
	baseQ1, baseQ3   float64
	headQ1, headQ3   float64
	wins, pairs      int
}

// judge applies the benchmark's acceptance rules to N base and N head
// runs of one metric. A gain needs the head to win at least nine tenths
// of the pairs and the medians to differ by more than the base's
// quartile spread. A regression is a median worse by more than the
// bound. Where either side's quartile spread exceeds the bound the
// pair is unresolved, unless every head run beats every base run.
func judge(base, head []float64, bound float64, higherBetter bool) judgement {
	j := judgement{baseMed: median(base), headMed: median(head)}
	j.baseQ1, j.baseQ3 = quartiles(base)
	j.headQ1, j.headQ3 = quartiles(head)
	better := func(x, y float64) bool {
		if higherBetter {
			return x > y
		}
		return x < y
	}
	j.pairs = min(len(base), len(head))
	for i := 0; i < j.pairs; i++ {
		if better(head[i], base[i]) {
			j.wins++
		}
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			if !better(h, b) {
				allBetter = false
			}
		}
	}
	worse := (j.headMed - j.baseMed) / j.baseMed
	if higherBetter {
		worse = -worse
	}
	spread := math.Max((j.baseQ3-j.baseQ1)/j.baseMed, (j.headQ3-j.headQ1)/j.headMed)
	gain := better(j.headMed, j.baseMed) && 10*j.wins >= 9*j.pairs &&
		math.Abs(j.headMed-j.baseMed) > j.baseQ3-j.baseQ1
	switch {
	case allBetter && gain:
		j.verdict = "improved"
	case spread > bound:
		j.verdict = "unresolved"
	case worse > bound:
		j.verdict = "regressed"
	case gain:
		j.verdict = "improved"
	default:
		j.verdict = "unchanged"
	}
	return j
}

// runCompare prints one row per (end-to-end metric, workload) and fails
// when any row regressed.
func runCompare(w io.Writer, benchPath, baseDir, headDir string) error {
	def, err := loadBenchmark(benchPath)
	if err != nil {
		return err
	}
	base, nb, err := loadReports(baseDir)
	if err != nil {
		return err
	}
	head, nh, err := loadReports(headDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base %s: %d reports; head %s: %d reports\n", baseDir, nb, headDir, nh)
	fmt.Fprintf(w, "%-15s %-12s %-6s %30s %30s %8s %6s  %s\n", "workload", "metric", "bound",
		"base median [q1, q3]", "head median [q1, q3]", "change", "wins", "verdict")
	regressed := 0
	for _, wl := range def.Workloads {
		for _, m := range def.EndToEnd {
			b, h := base[wl.Name][m.Name], head[wl.Name][m.Name]
			if len(b) == 0 || len(h) == 0 {
				fmt.Fprintf(w, "%-15s %-12s %-6.2f %30s %30s %8s %6s  missing\n", wl.Name, m.Name, m.Bound, "", "", "", "")
				continue
			}
			j := judge(b, h, m.Bound, m.Better == "higher")
			if j.verdict == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "%-15s %-12s %-6.2f %30s %30s %+7.1f%% %3d/%-2d  %s\n", wl.Name, m.Name, m.Bound,
				fmt.Sprintf("%.4g [%.4g, %.4g]", j.baseMed, j.baseQ1, j.baseQ3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", j.headMed, j.headQ1, j.headQ3),
				100*(j.headMed-j.baseMed)/j.baseMed, j.wins, j.pairs, j.verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric/workload pairs regressed beyond their bound", regressed)
	}
	return nil
}
