// Command experiments regenerates the paper's tables and figures as
// measured data (see internal/exp and EXPERIMENTS.md).
//
// Usage:
//
//	experiments [-run E1,E4,...] [-seed N] [-quick] [-timeout D]
//	            [-debug-addr HOST:PORT] [-list]
//
// With no -run flag every experiment executes, in paper order. -timeout
// bounds the whole run: when it expires the running experiment's solver
// aborts at its next budget poll and the run fails with the deadline
// error. -debug-addr serves live expvar solver counters and
// net/http/pprof profiles for the duration of the run — useful for
// profiling the long experiments.
//
// A panic inside one experiment does not take down the run's partial
// output: exp.Run recovers it into a typed error naming the experiment
// and the panic value (the harness exits 1), so the tables already
// rendered to stdout survive.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"memverify/internal/exp"
	"memverify/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	which := fs.String("run", "", "comma-separated experiment IDs (default: all)")
	seed := fs.Int64("seed", 1, "random seed")
	quick := fs.Bool("quick", false, "small sizes (seconds instead of minutes)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none)")
	debugAddr := fs.String("debug-addr", "", "serve expvar and pprof debug endpoints on this address, e.g. localhost:6060")
	list := fs.Bool("list", false, "list experiments and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, e := range exp.All() {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
		}
		return 0
	}
	var ids []string
	if *which != "" {
		for _, id := range strings.Split(*which, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *debugAddr != "" {
		reg := obs.NewRegistry()
		srv, err := obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "experiments: debug endpoints on http://%s/debug/\n", srv.Addr)
		defer srv.Close()
		ctx = obs.With(ctx, &obs.Observer{Registry: reg})
	}
	if err := exp.Run(ctx, stdout, exp.Config{Seed: *seed, Quick: *quick}, ids...); err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 1
	}
	return 0
}
