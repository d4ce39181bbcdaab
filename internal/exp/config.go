package exp

import (
	"context"
	"io"
	"math/rand"

	"memverify/internal/solver"
)

// Config parameterizes an experiment run.
type Config struct {
	// Seed drives all randomness; equal seeds reproduce runs exactly
	// (timing columns aside).
	Seed int64
	// Quick shrinks sizes and sample counts for test runs.
	Quick bool
}

func (c Config) rng() *rand.Rand { return rand.New(rand.NewSource(c.Seed + 1)) }

// pick returns quick during Quick runs and full otherwise.
func pick[T any](c Config, quick, full T) T {
	if c.Quick {
		return quick
	}
	return full
}

// Experiment couples an identifier with its implementation. Run
// receives the context of the harness invocation; solver-heavy
// experiments thread it into every solve so a cmd/experiments -timeout
// (or an interactive cancellation) aborts mid-search.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx context.Context, cfg Config) ([]*Table, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Figure 4.1/4.2 — SAT to VMC reduction", E1Reduction},
		{"E2", "Figure 5.1 — 3SAT to VMC, 3 ops/process, 2 writes/value", E2Restricted},
		{"E3", "Figure 5.2 — 3SAT to VMC, 2 RMWs/process, 3 writes/value", E3RMW},
		{"E4", "Figure 5.3 — complexity summary, measured", E4SummaryTable},
		{"E5", "Figure 6.1 — LRC via synchronization", E5LRC},
		{"E6", "Figure 6.2/6.3 — SAT to VSCC, coherent by construction", E6VSCC},
		{"E7", "Section 6.3 — write-order, VSC-Conflict merge", E7WriteOrderAndMerge},
		{"E8", "Section 1 motivation — protocol fault detection", E8FaultDetection},
		{"E9", "Section 8 — online monitoring with the write order", E9OnlineMonitor},
		{"E10", "Section 7 — open problem probe: 2 simple ops per process", E10OpenTwoOps},
		{"A1", "Ablation — memoization and eager reads", AblationSearch},
		{"A2", "Ablation — SAT solver backends", AblationSAT},
		{"A3", "Ablation — write-order augmentation speedup", AblationWriteOrder},
	}
}

// Run executes the experiments whose IDs are listed (all when ids is
// empty), rendering each table to w. Cancelling ctx aborts the running
// experiment at its next solver budget poll. A panic inside one
// experiment (the Measure closures have no error path, so invariant
// failures there panic) is recovered into an error naming the
// experiment rather than crashing the whole harness run.
func Run(ctx context.Context, w io.Writer, cfg Config, ids ...string) error {
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	for _, e := range All() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		tables, err := runExperiment(ctx, cfg, e)
		if err != nil {
			return err
		}
		for _, t := range tables {
			if t.Title == "" {
				t.Title = e.ID + ": " + e.Title
			} else {
				t.Title = e.ID + ": " + t.Title
			}
			if err := t.Render(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// runExperiment invokes one experiment with panic isolation: the
// recovered value comes back as a typed *solver.ErrWorkerPanic whose
// label names the experiment, stack attached.
func runExperiment(ctx context.Context, cfg Config, e Experiment) (tables []*Table, err error) {
	defer solver.RecoverToError(ctx, "experiment "+e.ID, &err)
	return e.Run(ctx, cfg)
}
