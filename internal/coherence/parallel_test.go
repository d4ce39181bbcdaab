package coherence

import (
	"context"
	"math/rand"
	"testing"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// multiAddressInstance builds a random execution over several addresses
// with a violation injected into some of them.
func multiAddressInstance(rng *rand.Rand, naddr int) *memory.Execution {
	exec := &memory.Execution{Histories: make([]memory.History, 3)}
	for a := 0; a < naddr; a++ {
		exec.SetInitial(memory.Addr(a), 0)
		cur := memory.Value(0)
		for i := 0; i < 6; i++ {
			p := rng.Intn(3)
			if rng.Intn(2) == 0 {
				v := memory.Value(a*100 + i + 1)
				exec.Histories[p] = append(exec.Histories[p], memory.W(memory.Addr(a), v))
				cur = v
			} else {
				v := cur
				if rng.Intn(8) == 0 {
					v = 9999 // phantom: incoherent address
				}
				exec.Histories[p] = append(exec.Histories[p], memory.R(memory.Addr(a), v))
			}
		}
	}
	return exec
}

// verifyMap runs Verify under opts, with a parallel-search team of
// psearch workers for each exact search (0 or 1 = sequential), and
// returns the decided results by address — partial when a budget error
// aborts the run.
func verifyMap(ctx context.Context, exec *memory.Execution, opts *Options, psearch int) (map[memory.Addr]*Result, error) {
	o := opts.Clone()
	o.ParallelSearch = psearch
	rep, err := NewVerifier(solver.WithOptions(o)).Verify(ctx, exec)
	if rep == nil {
		return nil, err
	}
	return rep.Results(), err
}

// TestParallelMatchesSerial: Verify with a parallel-search team for
// each address's exact search agrees with the sequential Verify on every
// verdict, and its certificates check.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for i := 0; i < 50; i++ {
		exec := multiAddressInstance(rng, 1+rng.Intn(6))
		serial, err := verifyMap(context.Background(), exec, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, psearch := range []int{1, 2, 8} {
			par, err := verifyMap(context.Background(), exec, nil, psearch)
			if err != nil {
				t.Fatal(err)
			}
			if len(par) != len(serial) {
				t.Fatalf("instance %d psearch %d: %d results, want %d", i, psearch, len(par), len(serial))
			}
			for a, want := range serial {
				got := par[a]
				if got == nil || got.Coherent != want.Coherent || got.Decided != want.Decided {
					t.Fatalf("instance %d psearch %d addr %d: got %+v want %+v", i, psearch, a, got, want)
				}
				if got.Coherent {
					if err := memory.CheckCoherent(exec, a, got.Schedule); err != nil {
						t.Fatalf("instance %d: invalid parallel certificate: %v", i, err)
					}
				}
			}
		}
	}
}

// TestParallelDeterministicUnderBudget: when several addresses blow the
// state budget, Verify reports the error of the lowest failing address
// and keeps the earlier successes in its partial report, with or
// without a parallel-search team, on every run.
func TestParallelDeterministicUnderBudget(t *testing.T) {
	// Address 0 has unique write values, so SolveAuto dispatches it to
	// the polynomial read-map algorithm, which ignores the state budget.
	// Addresses 1 and 2 duplicate a write value and need the general
	// search, which trips MaxStates: 1 immediately.
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.W(1, 5), memory.R(1, 5), memory.W(2, 5), memory.R(2, 5)},
		memory.History{memory.R(0, 1), memory.W(1, 5), memory.R(1, 5), memory.W(2, 5), memory.R(2, 5)},
	).SetInitial(0, 0).SetInitial(1, 0).SetInitial(2, 0)
	opts := &Options{MaxStates: 1}

	for rep := 0; rep < 30; rep++ {
		for _, psearch := range []int{0, 2, 8} {
			partial, err := verifyMap(context.Background(), exec, opts, psearch)
			if err == nil {
				t.Fatalf("rep %d psearch %d: budget of 1 state did not trip", rep, psearch)
			}
			be, ok := solver.AsBudgetError(err)
			if !ok {
				t.Fatalf("rep %d psearch %d: error is not a budget error: %v", rep, psearch, err)
			}
			if !be.HasAddr || be.Addr != 1 {
				t.Fatalf("rep %d psearch %d: error for address %d (hasAddr=%v), want the lowest failing address 1",
					rep, psearch, be.Addr, be.HasAddr)
			}
			if res := partial[0]; res == nil || !res.Coherent {
				t.Fatalf("rep %d psearch %d: address 0 success missing from partial map: %+v", rep, psearch, partial)
			}
			if len(partial) != 1 {
				t.Fatalf("rep %d psearch %d: partial map %v, want only address 0", rep, psearch, partial)
			}
		}
	}
}

func TestParallelPropagatesErrors(t *testing.T) {
	bad := memory.NewExecution(memory.History{{Kind: memory.Kind(99), Addr: 0}})
	if _, err := verifyMap(context.Background(), bad, nil, 2); err == nil {
		t.Error("invalid execution accepted")
	}
}

func TestParallelEmptyExecution(t *testing.T) {
	res, err := verifyMap(context.Background(), memory.NewExecution(), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("results for addressless execution: %v", res)
	}
}
