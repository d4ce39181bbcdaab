// Cancellation coverage: every solver entry point must accept a
// context, notice cancellation and deadlines promptly, and report the
// abort as a *solver.ErrBudgetExceeded carrying its partial progress —
// the contract the context-aware engine API promises.
package memverify_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"memverify/internal/coherence"
	"memverify/internal/consistency"
	"memverify/internal/memory"
	"memverify/internal/reduction"
	"memverify/internal/sat"
	"memverify/internal/solver"
)

// hardFig41Instance reduces an unsatisfiable formula (it embeds every
// sign pattern over its first three variables) with enough extra
// variables that the complete search runs for seconds — long enough
// that a short deadline is guaranteed to strike mid-search.
func hardFig41Instance(t testing.TB) *reduction.VMCInstance {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	const m = 8
	f := &sat.Formula{NumVars: m}
	for bits := 0; bits < 8; bits++ {
		c := sat.Clause{}
		for k := 0; k < 3; k++ {
			l := sat.Lit(k + 1)
			if bits&(1<<k) != 0 {
				l = l.Neg()
			}
			c = append(c, l)
		}
		f.Clauses = append(f.Clauses, c)
	}
	for j := 0; j < 2*m; j++ {
		clen := 1 + rng.Intn(3)
		c := sat.Clause{}
		for k := 0; k < clen; k++ {
			l := sat.Lit(1 + rng.Intn(m))
			if rng.Intn(2) == 0 {
				l = l.Neg()
			}
			c = append(c, l)
		}
		f.Clauses = append(f.Clauses, c)
	}
	inst, err := reduction.SATToVMC(f)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// The subtests of the two tests below keep the names of the entry points
// the Verifier facades replaced (coherence.Solve, coherence.Coherent,
// consistency.SolveVSC, ...); each now runs the Verifier configuration
// that entry point became, so the contract stays pinned call shape by
// call shape. coherence.Verifier.* subtests cover facade methods with no
// older counterpart.

// portfolioSpelling is the coherence Verifier configured with the
// retired "portfolio" strategy spelling, which parses to StrategyFast.
func portfolioSpelling(t testing.TB) *coherence.Verifier {
	t.Helper()
	s, err := solver.ParseStrategy("portfolio")
	if err != nil {
		t.Fatal(err)
	}
	return coherence.NewVerifier(solver.WithStrategy(s))
}

// TestDeadlineStrikesMidSearch drives the acceptance criterion: on a
// hard Figure 4.1 instance, a 50ms deadline must abort every
// search-based entry point with a budget error carrying partial stats,
// within the deadline plus 100ms of scheduling slack.
func TestDeadlineStrikesMidSearch(t *testing.T) {
	inst := hardFig41Instance(t)
	const deadline = 50 * time.Millisecond
	const slack = 100 * time.Millisecond

	entryPoints := []struct {
		name string
		call func(ctx context.Context) error
	}{
		{"coherence.Solve", func(ctx context.Context) error {
			_, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(ctx, inst.Exec, inst.Addr)
			return err
		}},
		{"coherence.SolveAuto", func(ctx context.Context) error {
			_, err := coherence.NewVerifier().Solve(ctx, inst.Exec, inst.Addr)
			return err
		}},
		{"coherence.SolvePortfolio", func(ctx context.Context) error {
			_, err := portfolioSpelling(t).Solve(ctx, inst.Exec, inst.Addr)
			return err
		}},
		{"coherence.Coherent", func(ctx context.Context) error {
			_, err := coherence.NewVerifier().Verify(ctx, inst.Exec)
			return err
		}},
		{"coherence.VerifyExecution", func(ctx context.Context) error {
			_, err := coherence.NewVerifier().Verify(ctx, inst.Exec)
			return err
		}},
		{"coherence.VerifyExecutionParallel", func(ctx context.Context) error {
			_, err := coherence.NewVerifier(solver.WithBudget(solver.WithParallelSearch(4))).Verify(ctx, inst.Exec)
			return err
		}},
		{"coherence.VerifyExecutionPortfolio", func(ctx context.Context) error {
			_, err := portfolioSpelling(t).Verify(ctx, inst.Exec)
			return err
		}},
		{"coherence.Verifier.SolveBatch", func(ctx context.Context) error {
			res := coherence.NewVerifier().SolveBatch(ctx, []coherence.BatchJob{{Exec: inst.Exec, Addr: inst.Addr}})
			return res[0].Err
		}},
		{"coherence.Count", func(ctx context.Context) error {
			_, err := coherence.Count(ctx, inst.Exec, inst.Addr)
			return err
		}},
		{"consistency.SolveVSC", func(ctx context.Context) error {
			_, err := consistency.NewVerifier(consistency.SC).Verify(ctx, inst.Exec)
			return err
		}},
		{"consistency.Verify(SC)", func(ctx context.Context) error {
			_, err := consistency.NewVerifier(consistency.SC).Verify(ctx, inst.Exec)
			return err
		}},
		{"consistency.Verify(CoherenceOnly)", func(ctx context.Context) error {
			_, err := consistency.NewVerifier(consistency.CoherenceOnly).Verify(ctx, inst.Exec)
			return err
		}},
		{"consistency.SolveVSCC", func(ctx context.Context) error {
			_, err := consistency.NewVerifier(consistency.VSCC).Verify(ctx, inst.Exec)
			return err
		}},
		{"consistency.VerifyTSO", func(ctx context.Context) error {
			_, err := consistency.NewVerifier(consistency.TSO).Verify(ctx, inst.Exec)
			return err
		}},
		{"consistency.VerifyPSO", func(ctx context.Context) error {
			_, err := consistency.NewVerifier(consistency.PSO).Verify(ctx, inst.Exec)
			return err
		}},
	}

	for _, ep := range entryPoints {
		ep := ep
		t.Run(ep.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			start := time.Now()
			err := ep.call(ctx)
			elapsed := time.Since(start)
			if err == nil {
				t.Fatalf("hard instance decided in %v; expected a deadline abort", elapsed)
			}
			be, ok := solver.AsBudgetError(err)
			if !ok {
				t.Fatalf("error is not a budget error: %v", err)
			}
			if be.Reason != solver.ExceededDeadline {
				t.Errorf("reason = %v, want ExceededDeadline", be.Reason)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Error("budget error does not unwrap to context.DeadlineExceeded")
			}
			if be.Stats.States == 0 {
				t.Error("budget error carries no partial stats")
			}
			if elapsed > deadline+slack {
				t.Errorf("abort took %v, want under %v", elapsed, deadline+slack)
			}
		})
	}
}

// TestCancellationEveryEntryPoint calls each public solver entry point
// — including the polynomial ones, which poll only at their entry —
// with an already-cancelled context and expects a Canceled budget
// error from all of them.
func TestCancellationEveryEntryPoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	// Small valid instances matching each algorithm's preconditions.
	simple := memory.NewExecution(
		memory.History{memory.W(0, 1)},
		memory.History{memory.R(0, 1)},
	).SetInitial(0, 0)
	simpleOrder := []memory.Ref{{Proc: 0, Index: 0}}
	rmw := memory.NewExecution(
		memory.History{memory.RW(0, 0, 1)},
		memory.History{memory.RW(0, 1, 2)},
	).SetInitial(0, 0)
	rmwOrder := []memory.Ref{{Proc: 0, Index: 0}, {Proc: 1, Index: 0}}
	incoherent := memory.NewExecution(
		memory.History{memory.W(0, 1)},
		memory.History{memory.R(0, 9)},
	).SetInitial(0, 0)
	synced := memory.NewExecution(
		memory.History{memory.Acq(), memory.W(0, 1), memory.Rel()},
		memory.History{memory.Acq(), memory.R(0, 1), memory.Rel()},
	).SetInitial(0, 0)

	entryPoints := []struct {
		name string
		call func() error
	}{
		{"coherence.Solve", func() error {
			_, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(ctx, simple, 0)
			return err
		}},
		{"coherence.SolveAuto", func() error { _, err := coherence.NewVerifier().Solve(ctx, simple, 0); return err }},
		{"coherence.SolvePortfolio", func() error { _, err := portfolioSpelling(t).Solve(ctx, simple, 0); return err }},
		{"coherence.SolveReadMap", func() error { _, err := coherence.SolveReadMap(ctx, simple, 0); return err }},
		{"coherence.SolveSingleOp", func() error { _, err := coherence.SolveSingleOp(ctx, simple, 0); return err }},
		{"coherence.SolveSingleOpRMW", func() error { _, err := coherence.SolveSingleOpRMW(ctx, rmw, 0); return err }},
		{"coherence.SolveWithWriteOrder", func() error {
			_, err := coherence.SolveWithWriteOrder(ctx, simple, 0, simpleOrder, nil)
			return err
		}},
		{"coherence.CheckRMWWriteOrder", func() error {
			_, err := coherence.CheckRMWWriteOrder(ctx, rmw, 0, rmwOrder)
			return err
		}},
		{"coherence.Count", func() error { _, err := coherence.Count(ctx, simple, 0); return err }},
		{"coherence.Diagnose", func() error { _, err := coherence.Diagnose(ctx, incoherent, 0, nil); return err }},
		{"coherence.Coherent", func() error { _, err := coherence.NewVerifier().Verify(ctx, simple); return err }},
		{"coherence.VerifyExecution", func() error { _, err := coherence.NewVerifier().Verify(ctx, simple); return err }},
		{"coherence.VerifyExecutionParallel", func() error {
			_, err := coherence.NewVerifier(solver.WithBudget(solver.WithParallelSearch(2))).Verify(ctx, simple)
			return err
		}},
		{"coherence.VerifyExecutionPortfolio", func() error { _, err := portfolioSpelling(t).Verify(ctx, simple); return err }},
		{"coherence.Verifier.SolveAddr(resilient)", func() error {
			_, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyResilient)).SolveAddr(ctx, simple, 0)
			return err
		}},
		{"coherence.Verifier.VerifyCheckpoint", func() error {
			_, err := coherence.NewVerifier().VerifyCheckpoint(ctx, simple, nil)
			return err
		}},
		{"coherence.Verifier.SolveBatch", func() error {
			return coherence.NewVerifier().SolveBatch(ctx, []coherence.BatchJob{{Exec: simple, Addr: 0}})[0].Err
		}},
		{"consistency.SolveVSC", func() error { _, err := consistency.NewVerifier(consistency.SC).Verify(ctx, simple); return err }},
		{"consistency.SolveVSCC", func() error { _, err := consistency.NewVerifier(consistency.VSCC).Verify(ctx, simple); return err }},
		{"consistency.SolveVSCWithWriteOrders", func() error {
			_, err := consistency.NewVerifier(consistency.SC, solver.WithWriteOrders(map[memory.Addr][]memory.Ref{0: simpleOrder})).Verify(ctx, simple)
			return err
		}},
		{"consistency.VerifyTSO", func() error { _, err := consistency.NewVerifier(consistency.TSO).Verify(ctx, simple); return err }},
		{"consistency.VerifyPSO", func() error { _, err := consistency.NewVerifier(consistency.PSO).Verify(ctx, simple); return err }},
		{"consistency.VerifyLRC", func() error { _, err := consistency.NewVerifier(consistency.LRC).Verify(ctx, synced); return err }},
		{"consistency.Verify(SC)", func() error { _, err := consistency.NewVerifier(consistency.SC).Verify(ctx, simple); return err }},
		{"consistency.Verify(TSO)", func() error { _, err := consistency.NewVerifier(consistency.TSO).Verify(ctx, simple); return err }},
		{"consistency.Verify(PSO)", func() error { _, err := consistency.NewVerifier(consistency.PSO).Verify(ctx, simple); return err }},
		{"consistency.Verify(CoherenceOnly)", func() error {
			_, err := consistency.NewVerifier(consistency.CoherenceOnly).Verify(ctx, simple)
			return err
		}},
		{"consistency.Verify(LRC)", func() error { _, err := consistency.NewVerifier(consistency.LRC).Verify(ctx, synced); return err }},
	}

	for _, ep := range entryPoints {
		ep := ep
		t.Run(ep.name, func(t *testing.T) {
			err := ep.call()
			if err == nil {
				t.Fatal("cancelled context not noticed")
			}
			be, ok := solver.AsBudgetError(err)
			if !ok {
				t.Fatalf("error is not a budget error: %v", err)
			}
			if be.Reason != solver.Canceled {
				t.Errorf("reason = %v, want Canceled", be.Reason)
			}
			if !errors.Is(err, context.Canceled) {
				t.Error("budget error does not unwrap to context.Canceled")
			}
		})
	}
}
