package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"memverify/internal/coherence"
	"memverify/internal/reduction"
	"memverify/internal/sat"
	"memverify/internal/trace"
)

func runCheck(t *testing.T, args []string, input string) (int, string, string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code := run(args, strings.NewReader(input), &out, &errBuf)
	return code, out.String(), errBuf.String()
}

const coherentTrace = `init x 0
P0: W x 1
P1: R x 1
`

const incoherentTrace = `init x 0
P0: W x 1
P1: R x 9
`

func TestCoherentTraceOK(t *testing.T) {
	code, out, _ := runCheck(t, nil, coherentTrace)
	if code != 0 || !strings.Contains(out, "OK") {
		t.Errorf("code=%d out=%q", code, out)
	}
}

func TestIncoherentTraceFlagged(t *testing.T) {
	code, out, _ := runCheck(t, nil, incoherentTrace)
	if code != 1 || !strings.Contains(out, "VIOLATION") {
		t.Errorf("code=%d out=%q", code, out)
	}
}

// TestUntouchedFinalAddress: x declares init 1 and final 0 but no
// operation touches it, so no schedule can end with x = 0. Every
// strategy of the coherence check and every consistency model reports
// the violation.
func TestUntouchedFinalAddress(t *testing.T) {
	const untouched = "init x 1\nfinal x 0\nP0: W y 1\n"
	for _, args := range [][]string{
		nil,
		{"-strategy", "fast"},
		{"-strategy", "exact"},
		{"-resilient"},
		{"-model", "sc"},
		{"-model", "tso"},
		{"-model", "pso"},
	} {
		code, out, _ := runCheck(t, args, untouched)
		if code != 1 || !strings.Contains(out, "VIOLATION") {
			t.Errorf("%v: code=%d out=%q, want a violation", args, code, out)
		}
	}
}

func TestSCModel(t *testing.T) {
	dekker := `init x 0
init y 0
P0: W x 1
P0: R y 0
P1: W y 1
P1: R x 0
`
	code, out, _ := runCheck(t, []string{"-model", "sc"}, dekker)
	if code != 1 || !strings.Contains(out, "VIOLATION") {
		t.Errorf("Dekker should violate SC: code=%d out=%q", code, out)
	}
	code, out, _ = runCheck(t, []string{"-model", "tso"}, dekker)
	if code != 0 || !strings.Contains(out, "OK") {
		t.Errorf("Dekker should pass TSO: code=%d out=%q", code, out)
	}
	code, _, _ = runCheck(t, []string{"-model", "pso"}, dekker)
	if code != 0 {
		t.Errorf("Dekker should pass PSO: code=%d", code)
	}
}

// TestSCParallelSearch: -model sc honours -psearch, since SC runs on the
// coherence kernel. On an unsatisfiable Figure 4.1 reduction the team
// exhausts the same state space the sequential run does, so the verdict
// is the same.
func TestSCParallelSearch(t *testing.T) {
	f := sat.NewFormula(sat.Clause{1, 2}, sat.Clause{-1, 2}, sat.Clause{1, -2}, sat.Clause{-1, -2}, sat.Clause{3, 4}, sat.Clause{-3, 4})
	inst, err := reduction.SATToVMC(f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, trace.New(inst.Exec)); err != nil {
		t.Fatal(err)
	}
	code, seq, _ := runCheck(t, []string{"-model", "sc", "-stats"}, buf.String())
	if code != 1 || !strings.Contains(seq, "VIOLATION (vsc-search)") {
		t.Fatalf("sequential: code=%d out=%q", code, seq)
	}
	code, par, _ := runCheck(t, []string{"-model", "sc", "-psearch", "2", "-stats"}, buf.String())
	if code != 1 || strings.SplitN(par, "\n", 2)[0] != strings.SplitN(seq, "\n", 2)[0] {
		t.Fatalf("-psearch 2: code=%d out=%q, sequential %q", code, par, seq)
	}
}

func TestLRCModel(t *testing.T) {
	synced := `init x 0
P0: ACQ
P0: W x 1
P0: REL
P1: ACQ
P1: R x 1
P1: REL
`
	code, out, _ := runCheck(t, []string{"-model", "lrc"}, synced)
	if code != 0 {
		t.Errorf("code=%d out=%q", code, out)
	}
	// Unsynchronized trace is a usage error for LRC.
	code, _, _ = runCheck(t, []string{"-model", "lrc"}, coherentTrace)
	if code != 2 {
		t.Errorf("unsynchronized LRC check: code=%d, want 2", code)
	}
}

func TestUseOrder(t *testing.T) {
	withOrder := `init x 0
P0: W x 1
P0: W x 2
P1: R x 1
order x P0[0] P0[1]
`
	code, out, _ := runCheck(t, []string{"-use-order"}, withOrder)
	if code != 0 {
		t.Errorf("code=%d out=%q", code, out)
	}
	// Missing order line with writes present: usage error.
	code, _, _ = runCheck(t, []string{"-use-order"}, coherentTrace)
	if code != 2 {
		t.Errorf("missing order: code=%d, want 2", code)
	}
}

// TestUseOrderErrorNamesTraceRefs: a faulty order line is reported by
// the refs the trace wrote, not by the refs of the address's projection
// (P0[1] is the first x op of P0, after its write of y).
func TestUseOrderErrorNamesTraceRefs(t *testing.T) {
	const ops = `init x 0
init y 0
P0: W y 5
P0: W x 1
P0: W x 2
P1: R x 1
`
	for order, want := range map[string]string{
		"P0[1] P0[1]": "write order lists P0[1] twice",
		"P0[2] P0[1]": "write order violates program order at P0[1]",
		"P0[1] P1[0]": "write order entry P1[0] (R(0, 1)) does not write",
	} {
		code, _, errOut := runCheck(t, []string{"-use-order"}, ops+"order x "+order+"\n")
		if code != 2 || !strings.Contains(errOut, want) {
			t.Errorf("order %s: code=%d stderr=%q, want 2 and %q", order, code, errOut, want)
		}
	}
}

func TestCertificatePrinted(t *testing.T) {
	code, out, _ := runCheck(t, []string{"-cert"}, coherentTrace)
	if code != 0 || !strings.Contains(out, "W(0, 1)") {
		t.Errorf("code=%d out=%q", code, out)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCheck(t, []string{"-model", "bogus"}, coherentTrace); code != 2 {
		t.Error("unknown model accepted")
	}
	if code, _, _ := runCheck(t, nil, "not a trace"); code != 2 {
		t.Error("bad trace accepted")
	}
	if code, _, _ := runCheck(t, []string{"a", "b"}, ""); code != 2 {
		t.Error("two file args accepted")
	}
	if code, _, _ := runCheck(t, []string{"/nonexistent/file"}, ""); code != 2 {
		t.Error("missing file accepted")
	}
}

func TestBudgetUndecided(t *testing.T) {
	// An instance needing the general search (value 3 is written twice,
	// so no polynomial special case applies) with a 1-state budget:
	// coherence must report undecided (exit 1) rather than a verdict.
	hard := `init x 0
P0: W x 1
P0: R x 2
P1: W x 2
P1: R x 1
P2: W x 3
P3: W x 3
`
	code, out, _ := runCheck(t, []string{"-max-states", "1"}, hard)
	if code != 1 || !strings.Contains(out, "UNDECIDED") {
		t.Errorf("code=%d out=%q", code, out)
	}
}

func TestDiagnoseFlag(t *testing.T) {
	code, out, _ := runCheck(t, []string{"-diagnose"}, incoherentTrace)
	if code != 1 {
		t.Fatalf("code=%d", code)
	}
	if !strings.Contains(out, "minimal core") || !strings.Contains(out, "R(0, 9)") {
		t.Errorf("diagnosis missing from output:\n%s", out)
	}
}

func TestSCWithOrders(t *testing.T) {
	withOrder := `init x 0
P0: W x 1
P0: W x 2
P1: R x 1
P1: R x 2
order x P0[0] P0[1]
`
	code, out, _ := runCheck(t, []string{"-model", "sc", "-use-order"}, withOrder)
	if code != 0 || !strings.Contains(out, "OK") {
		t.Errorf("code=%d out=%q", code, out)
	}
	// Missing order lines: usage error from the constrained solver.
	code, _, _ = runCheck(t, []string{"-model", "sc", "-use-order"}, coherentTrace)
	if code != 2 {
		t.Errorf("missing orders accepted: code=%d", code)
	}
}

func TestOnlineMode(t *testing.T) {
	// File order = completion order here.
	good := `init x 0
P0: W x 1
P1: R x 1
P0: W x 2
P1: R x 2
`
	code, out, _ := runCheck(t, []string{"-online"}, good)
	if code != 0 || !strings.Contains(out, "OK") {
		t.Errorf("code=%d out=%q", code, out)
	}
	// A backward observation in completion order.
	bad := `init x 0
P0: W x 1
P0: W x 2
P1: R x 2
P1: R x 1
`
	code, out, _ = runCheck(t, []string{"-online"}, bad)
	if code != 1 || !strings.Contains(out, "VIOLATION") {
		t.Errorf("code=%d out=%q", code, out)
	}
	// Wrong final value.
	final := `init x 0
final x 9
P0: W x 1
`
	code, _, _ = runCheck(t, []string{"-online"}, final)
	if code != 1 {
		t.Errorf("final mismatch not flagged: code=%d", code)
	}
}

// backtrackTrace needs the general memoized search (value 3 is written
// twice) and is incoherent, so its deterministic search counters
// exercise every field of the -stats line.
const backtrackTrace = `init x 0
P0: W x 1
P0: R x 2
P1: W x 2
P1: R x 1
P2: W x 3
P3: W x 3
`

// TestStatsGolden pins the full -stats line, including the derived memo
// hit-rate percentage and throughput. Wall-clock dependent fields
// (rate, t) are normalized; the search itself is deterministic.
func TestStatsGolden(t *testing.T) {
	code, out, _ := runCheck(t, []string{"-stats"}, backtrackTrace)
	if code != 1 {
		t.Fatalf("code=%d out=%q", code, out)
	}
	norm := regexp.MustCompile(`rate=\S+ t=\S+`).ReplaceAllString(out, "rate=? t=?")
	norm = regexp.MustCompile(`p50=\S+ p90=\S+ p99=\S+ max=\S+`).ReplaceAllString(norm, "p50=? p90=? p99=? max=?")
	want := "x: VIOLATION (general-search)\n" +
		"  stats: states=32 memo=19/51 (37.3%) eager=14 depth=5 branch=1.56 rate=? t=?\n" +
		"solve latency: n=1 p50=? p90=? p99=? max=?\n" +
		"VIOLATION: 1 of 1 addresses incoherent or undecided\n"
	if norm != want {
		t.Errorf("-stats output:\n got %q\nwant %q", norm, want)
	}
	// The raw line carries a real throughput figure, not the n/a
	// placeholder: the general search records its duration.
	if !regexp.MustCompile(`rate=\d+/s`).MatchString(out) {
		t.Errorf("no states/sec in %q", out)
	}
	// The raw latency line carries real durations.
	if !regexp.MustCompile(`solve latency: n=1 p50=\d+\S* `).MatchString(out) {
		t.Errorf("no solve-latency quantiles in %q", out)
	}
}

// TestTraceFlagJSONL checks -trace writes a machine-readable event log:
// every line parses as JSON, every span ends, and events reference
// spans that are open when they fire.
func TestTraceFlagJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	code, _, errOut := runCheck(t, []string{"-trace", path}, backtrackTrace)
	if code != 1 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 10 {
		t.Fatalf("only %d trace lines for a 32-state search", len(lines))
	}
	type ev struct {
		TS     *int64  `json:"ts"`
		Ev     string  `json:"ev"`
		Span   uint64  `json:"span"`
		Parent *uint64 `json:"parent"`
		Name   string  `json:"name"`
	}
	open := map[uint64]bool{}
	kinds := map[string]int{}
	names := map[string]int{}
	for _, raw := range lines {
		var e ev
		if err := json.Unmarshal([]byte(raw), &e); err != nil {
			t.Fatalf("trace line %q does not parse: %v", raw, err)
		}
		if e.TS == nil {
			t.Fatalf("trace line %q has no timestamp", raw)
		}
		kinds[e.Ev]++
		switch e.Ev {
		case "span_begin":
			names[e.Name]++
			if e.Parent != nil && !open[*e.Parent] {
				t.Fatalf("span %d begins under closed parent %d", e.Span, *e.Parent)
			}
			open[e.Span] = true
		case "span_end":
			if !open[e.Span] {
				t.Fatalf("span_end for span %d that is not open", e.Span)
			}
			open[e.Span] = false
		default:
			if e.Span != 0 && !open[e.Span] {
				t.Fatalf("%s event outside its span %d", e.Ev, e.Span)
			}
		}
	}
	for id, o := range open {
		if o {
			t.Errorf("span %d never ended", id)
		}
	}
	if names["solve-auto"] == 0 || names["general-search"] == 0 {
		t.Errorf("span names = %v, want solve-auto and general-search", names)
	}
	for _, k := range []string{"state_enter", "backtrack", "memo_hit", "memo_miss", "eager_reads"} {
		if kinds[k] == 0 {
			t.Errorf("no %s events in trace (kinds: %v)", k, kinds)
		}
	}
}

// TestExplainFlag checks -explain renders the search-tree summary and
// names the conflicting operations behind the incoherent verdict.
func TestExplainFlag(t *testing.T) {
	code, out, errOut := runCheck(t, []string{"-explain"}, backtrackTrace)
	if code != 1 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	for _, want := range []string{
		"explain:",
		"general-search:",
		"backtracks",
		"backtracks by depth:",
		"conflicting operations (minimal core",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-explain output missing %q:\n%s", want, out)
		}
	}
	// The core must name at least one concrete conflicting operation.
	if !strings.Contains(out, "R(0, 1)") {
		t.Errorf("-explain core does not name a conflicting read:\n%s", out)
	}

	// On the specialist path (one write per value) the summary still
	// renders, from the solve-auto entry span.
	code, out, _ = runCheck(t, []string{"-explain"}, incoherentTrace)
	if code != 1 {
		t.Fatalf("code=%d", code)
	}
	if !strings.Contains(out, "explain:") || !strings.Contains(out, "R(0, 9)") {
		t.Errorf("-explain on specialist path:\n%s", out)
	}
}

// TestProgressFlag checks the live reporter emits at least a final
// sample to stderr.
func TestProgressFlag(t *testing.T) {
	code, _, errOut := runCheck(t, []string{"-progress"}, backtrackTrace)
	if code != 1 {
		t.Fatalf("code=%d", code)
	}
	if !strings.Contains(errOut, "obs: states=") {
		t.Errorf("no progress line on stderr: %q", errOut)
	}
}

// TestDebugAddrFlag smoke-tests the debug endpoint wiring.
func TestDebugAddrFlag(t *testing.T) {
	code, _, errOut := runCheck(t, []string{"-debug-addr", "127.0.0.1:0"}, coherentTrace)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	if !strings.Contains(errOut, "debug endpoints on http://") {
		t.Errorf("no endpoint banner on stderr: %q", errOut)
	}
}

// TestCheckpointResumeCLI is the CLI acceptance test for
// checkpoint/resume: a budgeted run writes a checkpoint, and the
// resumed run reaches the fresh verdict while re-exploring strictly
// fewer states than the fresh search's 32 (the figure TestStatsGolden
// pins), with memo hits from the seeded failed-state table.
func TestCheckpointResumeCLI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	code, out, errOut := runCheck(t, []string{"-max-states", "20", "-checkpoint", path}, backtrackTrace)
	if code != 1 || !strings.Contains(out, "UNDECIDED") {
		t.Fatalf("interrupted run: code=%d out=%q stderr=%q", code, out, errOut)
	}
	if !strings.Contains(out, "checkpoint: wrote "+path) {
		t.Fatalf("no checkpoint banner:\n%s", out)
	}
	if _, err := coherence.LoadCheckpoint(path); err != nil {
		t.Fatalf("written checkpoint does not load: %v", err)
	}

	code, out, errOut = runCheck(t, []string{"-resume", path, "-stats"}, backtrackTrace)
	if code != 1 || !strings.Contains(out, "VIOLATION (general-search)") {
		t.Fatalf("resumed run: code=%d out=%q stderr=%q", code, out, errOut)
	}
	m := regexp.MustCompile(`states=(\d+) memo=(\d+)/`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no stats line in %q", out)
	}
	states, _ := strconv.Atoi(m[1])
	hits, _ := strconv.Atoi(m[2])
	if states >= 32 {
		t.Errorf("resumed search explored %d states, want < 32", states)
	}
	if hits == 0 {
		t.Error("resumed search had no memo hits; the seed was unused")
	}
}

// TestCheckpointReplayCLI: a checkpoint taken after one address
// completed replays that verdict (visibly annotated) instead of
// re-solving it.
func TestCheckpointReplayCLI(t *testing.T) {
	two := `init x 0
init y 0
P0: W x 1
P0: W y 1
P0: R y 2
P1: R x 1
P1: W y 2
P1: R y 1
P2: W y 3
P3: W y 3
`
	path := filepath.Join(t.TempDir(), "ck.json")
	code, out, _ := runCheck(t, []string{"-max-states", "20", "-checkpoint", path}, two)
	if code != 1 || !strings.Contains(out, "x: OK") || !strings.Contains(out, "y: UNDECIDED") {
		t.Fatalf("interrupted run: code=%d out=%q", code, out)
	}
	code, out, _ = runCheck(t, []string{"-resume", path}, two)
	if code != 1 {
		t.Fatalf("resumed run: code=%d out=%q", code, out)
	}
	if !strings.Contains(out, "x: OK (checkpoint:read-map)") {
		t.Errorf("completed address not replayed from the checkpoint:\n%s", out)
	}
	if !strings.Contains(out, "y: VIOLATION (general-search)") {
		t.Errorf("pending address not finished on resume:\n%s", out)
	}
}

// TestCheckpointWrongTraceCLI: resuming against a different trace is an
// input error — the fingerprint check refuses, before any solving.
func TestCheckpointWrongTraceCLI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	code, _, _ := runCheck(t, []string{"-max-states", "20", "-checkpoint", path}, backtrackTrace)
	if code != 1 {
		t.Fatalf("interrupted run: code=%d", code)
	}
	code, _, errOut := runCheck(t, []string{"-resume", path}, coherentTrace)
	if code != 2 || !strings.Contains(errOut, "fingerprint") {
		t.Errorf("wrong-trace resume: code=%d stderr=%q, want fingerprint rejection", code, errOut)
	}
}

// manyWriteTrace has nine writes — past the ladder's enumeration bound
// — with repeated values (no Figure 5.3 specialist) and consistent
// reads, so under a tiny budget no rung can decide it.
const manyWriteTrace = `init x 0
P0: W x 1
P0: R x 2
P0: W x 1
P0: R x 2
P1: W x 2
P1: R x 1
P1: W x 2
P1: R x 1
P2: W x 3
P2: W x 3
P2: W x 1
P3: W x 2
P3: W x 1
`

// TestResilientCLI drives the degradation ladder end to end: rung
// annotations for the exact and enumeration rungs, and the UNKNOWN
// verdict with necessary-condition evidence when the ladder exhausts.
func TestResilientCLI(t *testing.T) {
	// Default ladder: the polynomial frontline decides first.
	code, out, _ := runCheck(t, []string{"-resilient"}, coherentTrace)
	if code != 0 || !strings.Contains(out, "x: OK (fastpath, rung=fast)") {
		t.Errorf("fast rung: code=%d out=%q", code, out)
	}
	// Frontline ablated: the exact rung decides as before.
	code, out, _ = runCheck(t, []string{"-resilient", "-no-fastpath"}, coherentTrace)
	if code != 0 || !strings.Contains(out, "x: OK (read-map, rung=exact)") {
		t.Errorf("exact rung: code=%d out=%q", code, out)
	}
	// Budget too small for the exact search but only six writes: the
	// write-order enumeration rung still refutes (frontline ablated so
	// the ladder is what answers).
	code, out, _ = runCheck(t, []string{"-resilient", "-no-fastpath", "-max-states", "3"}, backtrackTrace)
	if code != 1 || !strings.Contains(out, "x: VIOLATION (write-order-enum, rung=specialist)") {
		t.Errorf("specialist rung: code=%d out=%q", code, out)
	}
	// Nine writes: no rung decides — UNKNOWN with evidence, exit 1.
	code, out, _ = runCheck(t, []string{"-resilient", "-max-states", "5"}, manyWriteTrace)
	if code != 1 || !strings.Contains(out, "x: UNKNOWN (ladder-exhausted, rung=necessary)") {
		t.Errorf("ladder exhausted: code=%d out=%q", code, out)
	}
	if !strings.Contains(out, "check: unwritten-read-values: pass") {
		t.Errorf("no necessary-condition evidence:\n%s", out)
	}
}

// TestRobustnessFlagValidation: the checkpoint and ladder flags only
// make sense for the offline coherence search; everything else is a
// usage error.
func TestRobustnessFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-checkpoint", "x", "-model", "sc"},
		{"-resume", "x", "-model", "tso"},
		{"-resilient", "-model", "sc"},
		{"-checkpoint", "x", "-online"},
		{"-checkpoint", "x", "-use-order"},
		{"-resilient", "-use-order"},
		{"-resume", "/nonexistent/ck.json"},
		{"-psearch", "2", "-model", "tso"},
		{"-psearch", "4", "-model", "pso"},
	} {
		if code, _, _ := runCheck(t, args, coherentTrace); code != 2 {
			t.Errorf("%v: code=%d, want 2", args, code)
		}
	}
}

// slowIncoherentTrace is refuted only by exhausting an enormous search:
// 70 writes of repeated values followed by a read no write satisfies.
// Uninterrupted it runs for seconds, leaving a wide window to interrupt.
func slowIncoherentTrace() string {
	rng := rand.New(rand.NewSource(13))
	var b strings.Builder
	b.WriteString("init x 0\n")
	for p := 0; p < 5; p++ {
		for i := 0; i < 14; i++ {
			fmt.Fprintf(&b, "P%d: W x %d\n", p, 1+rng.Intn(3))
		}
	}
	b.WriteString("P0: R x 9999\n")
	return b.String()
}

// TestSIGINTWritesCheckpoint is the interrupt acceptance test: SIGINT
// mid-search with -checkpoint must exit 0 after writing a resumable
// checkpoint and reporting the partial progress — a pause, not a crash.
func TestSIGINTWritesCheckpoint(t *testing.T) {
	// Backstop handler: if the signal fired before run() installed its
	// own, the runtime's default action would kill the test binary.
	backstop := make(chan os.Signal, 1)
	signal.Notify(backstop, os.Interrupt)
	defer signal.Stop(backstop)

	path := filepath.Join(t.TempDir(), "ck.json")
	input := slowIncoherentTrace()
	type result struct {
		code int
		out  string
	}
	done := make(chan result, 1)
	go func() {
		var out, errBuf bytes.Buffer
		code := run([]string{"-checkpoint", path}, strings.NewReader(input), &out, &errBuf)
		done <- result{code, out.String()}
	}()
	// Give run() time to get into the search, then interrupt ourselves.
	time.Sleep(500 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	var r result
	select {
	case r = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after SIGINT")
	}
	if r.code != 0 {
		t.Fatalf("interrupted run exited %d, want 0 (pause, not failure):\n%s", r.code, r.out)
	}
	if !strings.Contains(r.out, "INTERRUPTED") || !strings.Contains(r.out, "checkpoint: wrote "+path) {
		t.Fatalf("interrupt report incomplete:\n%s", r.out)
	}
	if !strings.Contains(r.out, "UNDECIDED") {
		t.Errorf("no partial-progress report before exit:\n%s", r.out)
	}
	if _, err := coherence.LoadCheckpoint(path); err != nil {
		t.Fatalf("checkpoint written on SIGINT does not load: %v", err)
	}
	// The checkpoint resumes: same trace, small budget — the run picks
	// the search back up (and trips the budget again, which is fine).
	code, out, errOut := runCheck(t, []string{"-resume", path, "-max-states", "100"}, input)
	if code != 1 || !strings.Contains(out, "UNDECIDED") {
		t.Errorf("resume from SIGINT checkpoint: code=%d out=%q stderr=%q", code, out, errOut)
	}
}

// TestTraceAndExplainCompose checks both tracer consumers can share one
// run (the Multi fan-out path).
func TestTraceAndExplainCompose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	code, out, _ := runCheck(t, []string{"-trace", path, "-explain"}, backtrackTrace)
	if code != 1 {
		t.Fatalf("code=%d", code)
	}
	if !strings.Contains(out, "conflicting operations") {
		t.Error("-explain lost when combined with -trace")
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("trace file missing or empty (err=%v)", err)
	}
}
