// Command vmcheck verifies a memory trace against a consistency model.
//
// Usage:
//
//	vmcheck [-model coherence|sc|tso|pso|lrc|vscc] [-use-order]
//	        [-strategy auto|fast|exact|resilient]
//	        [-no-fastpath] [-psearch N] [-max-states N] [-timeout D] [-stats] [-cert]
//	        [-diagnose] [-explain] [-trace FILE] [-progress]
//	        [-progress-interval D] [-debug-addr HOST:PORT] [-online]
//	        [-resilient] [-checkpoint FILE] [-resume FILE] [trace-file]
//
// The trace is read from the file argument or standard input, in the
// format of internal/trace. The exit status is 0 when the trace adheres
// to the model, 1 when it does not (or the solver's budget ran out
// before a verdict), and 2 on usage or input errors. With -checkpoint,
// an interrupt (SIGINT/SIGTERM) also exits 0 after writing a resumable
// checkpoint — the interrupted run is not a failure, it is a pause.
//
// With -use-order, per-address "order" lines in the trace are used to
// run the polynomial write-order algorithms of §5.2 for coherence.
// -strategy picks which rungs of the per-address escalation ladder run,
// with the same vocabulary the memverifyd service and the Verifier
// facades use (the retired spelling portfolio is accepted as fast);
// -resilient is shorthand for -strategy resilient. The polynomial
// constraint-propagation frontline opens the fast and resilient
// strategies, escalating only on an explicit inconclusive; -no-fastpath
// ablates it for A/B comparisons.
// -max-states and -timeout bound the search; a blown budget reports
// UNDECIDED. -stats prints the solver's per-solve search statistics.
// -psearch N splits each exact search across N workers sharing one memo
// table (see internal/coherence's parallel search): every search on the
// coherence kernel takes it, so -model coherence, lrc, sc and vscc do,
// and -model tso and pso, whose store-buffer searches stay sequential,
// reject it. The verdict never changes, and -stats shows the workers
// actually used ("workers=N" appears in the stats line when more than
// one engaged).
//
// Robustness (see the README "Robustness" section): -checkpoint FILE
// makes the coherence check write a versioned, checksummed checkpoint
// when the budget trips or a SIGINT/SIGTERM arrives mid-search;
// -resume FILE seeds a later run from it, replaying completed
// per-address verdicts and pruning the interrupted search with its
// saved failed-state table. -resilient verifies with the
// graceful-degradation ladder: instead of reporting UNDECIDED when the
// exact search exhausts its budget, it steps down to the paper's §5
// restricted algorithms and finally to sound necessary conditions,
// reporting UNKNOWN (with the ladder rung) only when nothing decides.
//
// Observability (see internal/obs and the README "Observability"
// section): -trace writes a JSONL event trace of the search (spans,
// state enters, backtracks, memo hits, ladder rungs entered); -explain
// renders a per-address summary of the search tree and names the
// conflicting operations for incoherent verdicts
// (coherence model only); -progress samples live solver throughput to
// stderr; -debug-addr serves expvar counters and net/http/pprof
// profiles over HTTP for the lifetime of the check.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"memverify/internal/coherence"
	"memverify/internal/consistency"
	"memverify/internal/memory"
	"memverify/internal/monitor"
	"memverify/internal/obs"
	"memverify/internal/solver"
	"memverify/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vmcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "coherence", "model to verify: coherence, sc, tso, pso, lrc or vscc")
	useOrder := fs.Bool("use-order", false, "use the trace's per-address write orders (polynomial algorithms of §5.2)")
	strategy := fs.String("strategy", "auto", "escalation-ladder preset: auto, fast, exact or resilient (same vocabulary as memverifyd)")
	noFastPath := fs.Bool("no-fastpath", false, "disable the polynomial fast-path frontline (ablation baseline; the verdict never changes, only the time to reach it)")
	maxStates := fs.Int("max-states", 0, "abort search after N states (0 = unlimited)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the whole check, e.g. 500ms (0 = none)")
	psearch := fs.Int("psearch", 0, "split each exact search across N workers sharing one memo table, for -model coherence, lrc, sc and vscc (0/1 = sequential; -stats shows the workers actually used)")
	showStats := fs.Bool("stats", false, "print per-solve search statistics")
	cert := fs.Bool("cert", false, "print the certificate schedule or witness on success")
	diagnose := fs.Bool("diagnose", false, "on a coherence violation, shrink it to a minimal core (implies -model coherence)")
	online := fs.Bool("online", false, "replay the trace in file order through the incremental monitor (requires the file order to be the completion order, as simtrace emits)")
	traceOut := fs.String("trace", "", "write a JSONL event trace of the search to this file")
	explain := fs.Bool("explain", false, "summarize the search tree per address and name the conflicting operations on incoherence (coherence model only)")
	progress := fs.Bool("progress", false, "report live solver progress (states/sec, depth, memo hit-rate) to stderr")
	progressEvery := fs.Duration("progress-interval", 0, "sampling interval for -progress (default 2s)")
	debugAddr := fs.String("debug-addr", "", "serve expvar and pprof debug endpoints on this address, e.g. localhost:6060")
	resilient := fs.Bool("resilient", false, "shorthand for -strategy resilient: degrade gracefully on budget exhaustion, reporting UNKNOWN instead of UNDECIDED (coherence model only)")
	ckPath := fs.String("checkpoint", "", "write a resumable checkpoint here when the budget trips or on SIGINT/SIGTERM (coherence model only)")
	resumePath := fs.String("resume", "", "resume from a checkpoint written by -checkpoint (coherence model only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	strat, err := solver.ParseStrategy(*strategy)
	if err != nil {
		fmt.Fprintf(stderr, "vmcheck: %v\n", err)
		return 2
	}
	if *resilient {
		strat = solver.StrategyResilient
	}
	useResilient := strat == solver.StrategyResilient
	if *psearch > 1 && (*model == "tso" || *model == "pso") {
		fmt.Fprintf(stderr, "vmcheck: -psearch does not apply to -model %s: the store-buffer search is sequential\n", *model)
		return 2
	}
	if *ckPath != "" || *resumePath != "" || useResilient {
		if *model != "coherence" || *online {
			fmt.Fprintln(stderr, "vmcheck: -checkpoint, -resume and the resilient strategy require -model coherence (and not -online)")
			return 2
		}
		if *useOrder && !useResilient {
			fmt.Fprintln(stderr, "vmcheck: -checkpoint/-resume do not apply to the -use-order polynomial algorithms")
			return 2
		}
		if *useOrder && useResilient {
			fmt.Fprintln(stderr, "vmcheck: the resilient strategy uses the trace's write orders as ladder hints automatically; drop -use-order")
			return 2
		}
	}

	in := stdin
	if fs.NArg() > 1 {
		fmt.Fprintln(stderr, "vmcheck: at most one trace file")
		return 2
	}
	if fs.NArg() == 1 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fmt.Fprintf(stderr, "vmcheck: %v\n", err)
			return 2
		}
		defer f.Close()
		in = f
	}
	tr, err := trace.Read(in)
	if err != nil {
		fmt.Fprintf(stderr, "vmcheck: %v\n", err)
		return 2
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *ckPath != "" {
		// With a checkpoint destination, SIGINT/SIGTERM become a request
		// to pause: the context cancels, the in-flight search aborts with
		// its partial state, and the checkpoint is written before exit.
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
	}
	// One unified configuration: the strategy and budget flags bind to
	// the same solver.Config vocabulary the memverifyd HTTP parameters
	// and Go facade callers use.
	cfgOpts := []solver.ConfigOption{
		solver.WithStrategy(strat),
		solver.WithBudget(solver.WithMaxStates(*maxStates)),
	}
	if *noFastPath {
		cfgOpts = append(cfgOpts, solver.WithBudget(solver.WithoutFastPath()))
	}
	if *psearch > 1 {
		// Parallel exact search inside each hard instance. Checkpointing
		// stays sequential (a mid-flight multi-worker memo is not
		// resumable state): with -checkpoint the search falls back to the
		// sequential path automatically.
		cfgOpts = append(cfgOpts, solver.WithBudget(solver.WithParallelSearch(*psearch)))
	}
	if useResilient {
		// The trace's order lines become ladder hints.
		cfgOpts = append(cfgOpts, solver.WithWriteOrders(tr.WriteOrders))
	}
	cfg := solver.NewConfig(cfgOpts...)

	// Observability wiring: an event tracer feeds the JSONL writer
	// and/or the -explain collector; one registry's search counters feed
	// the progress reporter and the debug endpoint. Absent every flag,
	// the context carries no observer and the solvers run at full speed.
	var (
		collector *obs.Collector
		sinks     []obs.Sink
	)
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(stderr, "vmcheck: %v\n", err)
			return 2
		}
		jl := obs.NewJSONL(f)
		sinks = append(sinks, jl)
		defer func() {
			if err := jl.Close(); err != nil {
				fmt.Fprintf(stderr, "vmcheck: trace: %v\n", err)
			}
			f.Close()
		}()
	}
	if *explain {
		collector = obs.NewCollector()
		sinks = append(sinks, collector)
	}
	var o obs.Observer
	if len(sinks) > 0 {
		o.Tracer = obs.NewTracer(obs.Multi(sinks...))
	}
	if *progress || *debugAddr != "" {
		o.Registry = obs.NewRegistry()
	}
	ctx = obs.With(ctx, &o)
	if *progress {
		p := obs.StartProgress(stderr, o.Registry, *progressEvery, int64(*maxStates))
		defer p.Stop()
	}
	if *debugAddr != "" {
		srv, err := obs.ServeDebug(*debugAddr, o.Registry)
		if err != nil {
			fmt.Fprintf(stderr, "vmcheck: %v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "vmcheck: debug endpoints on http://%s/debug/\n", srv.Addr)
		defer srv.Close()
	}

	if *online {
		return checkOnline(tr, stdout)
	}

	switch *model {
	case "coherence":
		c := &coherenceCheck{
			useOrder:   *useOrder,
			stats:      *showStats,
			cert:       *cert,
			diagnose:   *diagnose,
			explain:    *explain,
			ckPath:     *ckPath,
			resumePath: *resumePath,
			collector:  collector,
			cfg:        cfg,
			lat:        obs.NewHistogram(),
		}
		return c.run(ctx, tr, stdout, stderr)
	case "sc", "tso", "pso", "lrc", "vscc":
		m, merr := consistency.ParseModel(*model)
		if merr != nil {
			fmt.Fprintf(stderr, "vmcheck: %v\n", merr)
			return 2
		}
		vOpts := []solver.ConfigOption{solver.WithConfig(cfg)}
		if *useOrder && m == consistency.SC {
			// §6.3: the write orders constrain (and usually prune) the
			// SC search — but the question stays NP-Complete.
			vOpts = append(vOpts, solver.WithWriteOrders(tr.WriteOrders))
		}
		res, err := consistency.NewVerifier(m, vOpts...).Verify(ctx, tr.Exec)
		if err != nil {
			if be, ok := solver.AsBudgetError(err); ok {
				reportUndecided(stdout, m.String(), be, *showStats)
				return 1
			}
			fmt.Fprintf(stderr, "vmcheck: %v\n", err)
			return 2
		}
		report(stdout, m.String(), res, tr.Exec, *showStats, *cert)
		if *cert && res.Holds() {
			for _, e := range res.Events {
				fmt.Fprintln(stdout, e)
			}
		}
		if !res.Holds() {
			return 1
		}
		return 0
	default:
		fmt.Fprintf(stderr, "vmcheck: unknown model %q\n", *model)
		return 2
	}
}

// report renders the unified verdict line shared by every model:
// subject, OK/VIOLATION, the algorithm that decided, and optionally the
// solver statistics and certificate schedule.
func report(w io.Writer, subject string, v solver.Verdict, exec *memory.Execution, stats, cert bool) {
	verdict := "VIOLATION"
	if v.Holds() {
		verdict = "OK"
	}
	fmt.Fprintf(w, "%s: %s (%s)\n", subject, verdict, v.AlgorithmName())
	if stats {
		fmt.Fprintf(w, "  stats: %s\n", v.SolverStats())
	}
	if cert && v.Holds() {
		if s := v.Certificate(); len(s) > 0 {
			fmt.Fprintln(w, "  ", s.Format(exec))
		}
	}
}

// reportUndecided renders a blown solver budget in the same shape.
func reportUndecided(w io.Writer, subject string, be *solver.ErrBudgetExceeded, stats bool) {
	fmt.Fprintf(w, "%s: UNDECIDED (%s after %d states)\n", subject, be.Reason, be.Stats.States)
	if stats {
		fmt.Fprintf(w, "  stats: %s\n", be.Stats)
	}
}

// coherenceCheck bundles the per-address coherence verification flags
// around one unified solver.Config.
type coherenceCheck struct {
	useOrder   bool
	stats      bool
	cert       bool
	diagnose   bool
	explain    bool
	ckPath     string
	resumePath string
	collector  *obs.Collector
	cfg        *solver.Config
	lat        *obs.Histogram // per-address solve latency, printed with -stats
}

// resilient reports whether the config asks for the degradation ladder.
func (c *coherenceCheck) resilient() bool { return c.cfg.Strategy == solver.StrategyResilient }

// run decides every address through the coherence Verifier's address
// loop, which validates and projects the trace once and, with
// -checkpoint or -resume, replays, seeds and records through the
// checkpoint run; -use-order loops over the §5.2 write-order algorithm
// instead. Each address's outcome is printed as it arrives.
func (c *coherenceCheck) run(ctx context.Context, tr *trace.Trace, stdout, stderr io.Writer) int {
	var ckrun *coherence.CheckpointRun
	if c.ckPath != "" || c.resumePath != "" {
		if c.resumePath != "" {
			ck, err := coherence.LoadCheckpoint(c.resumePath)
			if err != nil {
				fmt.Fprintf(stderr, "vmcheck: %v\n", err)
				return 2
			}
			ckrun, err = coherence.ResumeCheckpointRun(tr.Exec, ck)
			if err != nil {
				fmt.Fprintf(stderr, "vmcheck: %v\n", err)
				return 2
			}
		} else {
			ckrun = coherence.NewCheckpointRun(tr.Exec)
		}
	}
	// writeCk persists the run's resumable state; it reports whether a
	// checkpoint was actually written (a -resume-only run has no
	// destination, and losing the race to write one is a hard error —
	// the user asked for crash safety).
	writeCk := func() (bool, bool) {
		if ckrun == nil || c.ckPath == "" {
			return false, true
		}
		if err := ckrun.Checkpoint().WriteFile(c.ckPath); err != nil {
			fmt.Fprintf(stderr, "vmcheck: %v\n", err)
			return false, false
		}
		return true, true
	}

	// visit prints one address's outcome and reports whether the run
	// goes on; when it does not, the run exits with code. A solve's
	// latency runs from the previous visit, so the first address also
	// carries the loop's one validation and projection pass.
	bad, n, code, stopped := 0, 0, 0, false
	solveStart := time.Now()
	visit := func(ar *coherence.AddrReport, err error) bool {
		n++
		a := ar.Addr
		defer func() { solveStart = time.Now() }()
		if ar.Replayed {
			report(stdout, tr.Name(a), ar.Result, tr.Exec, c.stats, c.cert)
			if !ar.Result.Coherent {
				bad++
			}
			return true
		}
		c.lat.ObserveSince(solveStart)
		if err != nil {
			code, stopped = c.handleSolveErr(tr, a, err, writeCk, stdout, stderr, &bad)
			return !stopped
		}
		if c.resilient() {
			reportResilient(stdout, tr.Name(a), ar, tr.Exec, c.stats, c.cert)
			if ar.Verdict != coherence.VerdictCoherent {
				bad++
			}
			return true
		}
		report(stdout, tr.Name(a), ar.Result, tr.Exec, c.stats, c.cert)
		if !ar.Result.Coherent {
			bad++
			if c.diagnose && !c.useOrder {
				c.printDiagnosis(ctx, tr, a, stdout, stderr)
			}
			if c.explain && !c.useOrder {
				c.printExplanation(ctx, tr, a, stdout, stderr)
			}
		}
		return true
	}
	if c.useOrder {
		for _, a := range tr.Exec.CheckedAddresses() {
			order, ok := tr.WriteOrders[a]
			if !ok && countWrites(tr.Exec, a) > 0 {
				fmt.Fprintf(stderr, "vmcheck: no write order recorded for %s\n", tr.Name(a))
				return 2
			}
			solveStart = time.Now()
			res, err := coherence.SolveWithWriteOrder(ctx, tr.Exec, a, order, c.cfg.Options)
			if !visit(&coherence.AddrReport{Addr: a, Result: res}, err) {
				break
			}
		}
	} else if err := coherence.NewVerifier(solver.WithConfig(c.cfg)).VerifyEach(ctx, tr.Exec, ckrun, visit); err != nil {
		fmt.Fprintf(stderr, "vmcheck: %v\n", err)
		return 2
	}
	if stopped {
		return code
	}
	if c.stats {
		printLatencySummary(stdout, c.lat.Snapshot())
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "VIOLATION: %d of %d addresses incoherent or undecided\n", bad, n)
		return 1
	}
	fmt.Fprintf(stdout, "OK: execution coherent at all %d addresses\n", n)
	return 0
}

// printLatencySummary prints the per-address solve-latency quantiles
// collected with -stats — the same obs.Histogram memverifyd feeds its
// /metrics stage histograms from. Replayed checkpoint verdicts are not
// solves and stay out of the histogram (n counts real solves).
func printLatencySummary(w io.Writer, s obs.HistSnapshot) {
	if s.Count == 0 {
		return
	}
	fmt.Fprintf(w, "solve latency: n=%d p50=%s p90=%s p99=%s max=%s\n",
		s.Count,
		time.Duration(s.Quantile(0.50)).Round(time.Microsecond),
		time.Duration(s.Quantile(0.90)).Round(time.Microsecond),
		time.Duration(s.Quantile(0.99)).Round(time.Microsecond),
		time.Duration(s.Max).Round(time.Microsecond))
}

// handleSolveErr deals with a per-address solve error. Budget trips
// write the checkpoint (when configured) and count the address as
// undecided; a cancellation — which with -checkpoint means SIGINT or
// SIGTERM — ends the run, exiting 0 when a resumable checkpoint was
// written (the pause succeeded) and 1 otherwise. The bool result says
// whether run() must return with the int result.
func (c *coherenceCheck) handleSolveErr(tr *trace.Trace, a memory.Addr, err error, writeCk func() (bool, bool), stdout, stderr io.Writer, bad *int) (int, bool) {
	be, ok := solver.AsBudgetError(err)
	if !ok {
		fmt.Fprintf(stderr, "vmcheck: %s: %v\n", tr.Name(a), err)
		return 2, true
	}
	wrote, ckOK := writeCk()
	if !ckOK {
		return 2, true
	}
	reportUndecided(stdout, tr.Name(a), be, c.stats)
	if wrote {
		fmt.Fprintf(stdout, "checkpoint: wrote %s (resume with -resume)\n", c.ckPath)
	}
	if be.Reason == solver.Canceled {
		fmt.Fprintf(stdout, "INTERRUPTED: stopped at %s after %d states\n", tr.Name(a), be.Stats.States)
		if wrote {
			return 0, true
		}
		return 1, true
	}
	*bad++
	return 0, false
}

// reportResilient renders a degradation-ladder verdict in the shared
// report shape, naming the rung that decided, and — for an Unknown
// verdict — the necessary-condition evidence.
func reportResilient(w io.Writer, subject string, ar *coherence.AddrReport, exec *memory.Execution, stats, cert bool) {
	verdict := map[coherence.ResilientVerdict]string{
		coherence.VerdictCoherent:   "OK",
		coherence.VerdictIncoherent: "VIOLATION",
		coherence.VerdictUnknown:    "UNKNOWN",
	}[ar.Verdict]
	alg := "ladder-exhausted"
	if ar.Result != nil {
		alg = ar.Result.Algorithm
	}
	fmt.Fprintf(w, "%s: %s (%s, rung=%s)\n", subject, verdict, alg, ar.Rung)
	if stats {
		fmt.Fprintf(w, "  stats: %s\n", ar.Stats)
	}
	if ar.Verdict == coherence.VerdictUnknown {
		for _, ch := range ar.Checks {
			fmt.Fprintf(w, "  check: %s\n", ch)
		}
	}
	if cert && ar.Result != nil && ar.Result.Coherent {
		if s := ar.Result.Schedule; len(s) > 0 {
			fmt.Fprintln(w, "  ", s.Format(exec))
		}
	}
}

func (c *coherenceCheck) printDiagnosis(ctx context.Context, tr *trace.Trace, a memory.Addr, stdout, stderr io.Writer) {
	d, err := coherence.Diagnose(ctx, tr.Exec, a, c.cfg.Options)
	if err != nil {
		fmt.Fprintf(stderr, "vmcheck: diagnosis of %s failed: %v\n", tr.Name(a), err)
		return
	}
	fmt.Fprintf(stdout, "  minimal core (%d ops", len(d.Ops))
	if d.FinalValueInvolved {
		fmt.Fprint(stdout, " + final value")
	}
	fmt.Fprintln(stdout, "):")
	for _, r := range d.Ops {
		fmt.Fprintf(stdout, "    %s: %s\n", r, tr.Exec.Op(r))
	}
}

// printExplanation renders the -explain summary for an incoherent
// address: the per-span search-tree statistics collected during the
// solve, then the conflicting operations of the minimal incoherent
// core. The span summaries are snapshotted before Diagnose runs, since
// its shrinking re-solves would otherwise pollute them.
func (c *coherenceCheck) printExplanation(ctx context.Context, tr *trace.Trace, a memory.Addr, stdout, stderr io.Writer) {
	spans := c.collector.ForAddr(int64(a))
	fmt.Fprintln(stdout, "  explain:")
	for _, s := range spans {
		fmt.Fprintf(stdout, "    %s\n", s.Describe())
		if h := s.BacktrackHistogram(); h != "" {
			fmt.Fprintf(stdout, "      backtracks by depth: %s\n", h)
		}
	}
	d, err := coherence.Diagnose(ctx, tr.Exec, a, c.cfg.Options)
	if err != nil {
		fmt.Fprintf(stderr, "vmcheck: explanation of %s incomplete: %v\n", tr.Name(a), err)
		return
	}
	fmt.Fprintf(stdout, "    conflicting operations (minimal core, %d ops", len(d.Ops))
	if d.FinalValueInvolved {
		fmt.Fprint(stdout, " + final value")
	}
	fmt.Fprintln(stdout, "):")
	for _, r := range d.Ops {
		fmt.Fprintf(stdout, "      %s: %s\n", r, tr.Exec.Op(r))
	}
}

// checkOnline replays the trace in file (completion) order through the
// incremental monitor.
func checkOnline(tr *trace.Trace, stdout io.Writer) int {
	mon := monitor.New(tr.Exec.Initial)
	for _, r := range tr.Arrival {
		o := tr.Exec.Op(r)
		if !o.IsMemory() {
			continue
		}
		var err error
		switch o.Kind {
		case memory.Read:
			err = mon.ObserveRead(r.Proc, o.Addr, o.Data)
		case memory.Write:
			err = mon.ObserveWrite(r.Proc, o.Addr, o.Data)
		case memory.ReadModifyWrite:
			err = mon.ObserveRMW(r.Proc, o.Addr, o.Data, o.Store)
		}
		if err != nil {
			fmt.Fprintf(stdout, "VIOLATION: %v\n", err)
			return 1
		}
	}
	if err := mon.CheckFinal(tr.Exec.Final); err != nil {
		fmt.Fprintf(stdout, "VIOLATION: %v\n", err)
		return 1
	}
	st := mon.Stats()
	fmt.Fprintf(stdout, "OK: %d reads, %d writes, %d RMWs monitored without violation\n",
		st.Reads, st.Writes, st.RMWs)
	return 0
}

func countWrites(exec *memory.Execution, a memory.Addr) int {
	n := 0
	for _, h := range exec.Histories {
		for _, o := range h {
			if o.IsMemory() && o.Addr == a {
				if _, ok := o.Writes(); ok {
					n++
				}
			}
		}
	}
	return n
}
