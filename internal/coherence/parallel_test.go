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

// verifyMap runs Verify across workers (0 or 1 = sequential) under opts
// and returns the decided results by address — partial when a budget
// error aborts the run.
func verifyMap(ctx context.Context, exec *memory.Execution, opts *Options, workers int) (map[memory.Addr]*Result, error) {
	rep, err := NewVerifier(solver.WithWorkers(workers), solver.WithOptions(opts)).Verify(ctx, exec)
	if rep == nil {
		return nil, err
	}
	return rep.Results(), err
}

func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for i := 0; i < 50; i++ {
		exec := multiAddressInstance(rng, 1+rng.Intn(6))
		serial, err := verifyMap(context.Background(), exec, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 2, 8} {
			par, err := verifyMap(context.Background(), exec, nil, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(par) != len(serial) {
				t.Fatalf("instance %d workers %d: %d results, want %d", i, workers, len(par), len(serial))
			}
			for a, want := range serial {
				got := par[a]
				if got == nil || got.Coherent != want.Coherent || got.Decided != want.Decided {
					t.Fatalf("instance %d workers %d addr %d: got %+v want %+v", i, workers, a, got, want)
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

// TestParallelDeterministicUnderBudget is the regression test for the
// old unordered-channel fan-out: when several addresses blow the state
// budget, the reported error (and the partial result map) used to
// depend on goroutine scheduling. Now the error is always the one for
// the lowest-indexed failing address, and earlier successes survive in
// the partial map, regardless of worker count or run.
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
		for _, workers := range []int{2, 3, 8} {
			partial, err := verifyMap(context.Background(), exec, opts, workers)
			if err == nil {
				t.Fatalf("rep %d workers %d: budget of 1 state did not trip", rep, workers)
			}
			be, ok := solver.AsBudgetError(err)
			if !ok {
				t.Fatalf("rep %d workers %d: error is not a budget error: %v", rep, workers, err)
			}
			if !be.HasAddr || be.Addr != 1 {
				t.Fatalf("rep %d workers %d: error for address %d (hasAddr=%v), want the lowest failing address 1",
					rep, workers, be.Addr, be.HasAddr)
			}
			if res := partial[0]; res == nil || !res.Coherent {
				t.Fatalf("rep %d workers %d: address 0 success missing from partial map: %+v", rep, workers, partial)
			}
			if len(partial) != 1 {
				t.Fatalf("rep %d workers %d: partial map %v, want only address 0", rep, workers, partial)
			}
		}
	}
}

func TestParallelPropagatesErrors(t *testing.T) {
	bad := memory.NewExecution(memory.History{{Kind: memory.Kind(99), Addr: 0}})
	if _, err := verifyMap(context.Background(), bad, nil, 4); err == nil {
		t.Error("invalid execution accepted")
	}
}

func TestParallelEmptyExecution(t *testing.T) {
	res, err := verifyMap(context.Background(), memory.NewExecution(), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("results for addressless execution: %v", res)
	}
}

// TestHardnessOrder: dispatch order is by projection size descending,
// ties broken by address ascending — a deterministic LPT schedule.
func TestHardnessOrder(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(2, 1), memory.W(2, 2), memory.W(2, 3), memory.W(0, 1), memory.W(0, 2)},
		memory.History{memory.W(2, 4), memory.W(1, 1), memory.W(3, 1), memory.W(3, 2)},
	)
	addrs := exec.Addresses() // [0 1 2 3], sizes 2,1,4,2
	order := hardnessOrder(addrs, projectionSizes(exec))
	got := make([]memory.Addr, len(order))
	for i, idx := range order {
		got[i] = addrs[idx]
	}
	want := []memory.Addr{2, 0, 3, 1} // size 4, then the size-2 tie by address, then size 1
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hardness order = %v, want %v", got, want)
		}
	}
}

// TestParallelLoadBalanceDeterministic is the load-balance satellite:
// on a trace whose addresses differ sharply in hardness (projection
// size), the largest-first dispatch must change only scheduling, never
// results — every worker count, repeated runs, and the serial loop all
// agree on verdicts, certificates, and state counts.
func TestParallelLoadBalanceDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	// Mixed-hardness execution: address a gets ~6·(a+1) ops, so the
	// heaviest projection is several times the lightest, plus injected
	// incoherence on some addresses (from multiAddressInstance's phantom
	// reads at the widest address set).
	exec := &memory.Execution{Histories: make([]memory.History, 3)}
	for a := 0; a < 5; a++ {
		exec.SetInitial(memory.Addr(a), 0)
		cur := memory.Value(0)
		for i := 0; i < 6*(a+1); i++ {
			p := rng.Intn(3)
			if rng.Intn(2) == 0 {
				v := memory.Value(a*1000 + i + 1)
				exec.Histories[p] = append(exec.Histories[p], memory.W(memory.Addr(a), v))
				cur = v
			} else {
				v := cur
				if a == 1 && i == 5 {
					v = 9999 // phantom: address 1 is incoherent
				}
				exec.Histories[p] = append(exec.Histories[p], memory.R(memory.Addr(a), v))
			}
		}
	}
	serial, err := verifyMap(context.Background(), exec, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 10; rep++ {
		for _, workers := range []int{2, 3, 5, 8} {
			par, err := verifyMap(context.Background(), exec, nil, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(par) != len(serial) {
				t.Fatalf("rep %d workers %d: %d results, want %d", rep, workers, len(par), len(serial))
			}
			for a, want := range serial {
				got := par[a]
				if got == nil || got.Coherent != want.Coherent {
					t.Fatalf("rep %d workers %d addr %d: got %+v want %+v", rep, workers, a, got, want)
				}
				if got.Stats.States != want.Stats.States {
					t.Fatalf("rep %d workers %d addr %d: %d states parallel vs %d serial — dispatch order leaked into the search",
						rep, workers, a, got.Stats.States, want.Stats.States)
				}
				if got.Coherent {
					if err := memory.CheckCoherent(exec, a, got.Schedule); err != nil {
						t.Fatalf("rep %d workers %d addr %d: bad certificate: %v", rep, workers, a, err)
					}
				}
			}
		}
	}
}
