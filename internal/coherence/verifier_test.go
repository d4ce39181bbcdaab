package coherence

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"memverify/internal/memory"
	"memverify/internal/solver"
	"memverify/internal/workload"
)

// parityTraces generates a randomized trial set: coherent traces by
// construction, half of them mutated with an injected violation, plus
// their generated write orders.
func parityTraces(t *testing.T, trials int) []struct {
	exec   *memory.Execution
	orders map[memory.Addr][]memory.Ref
} {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	var out []struct {
		exec   *memory.Execution
		orders map[memory.Addr][]memory.Ref
	}
	kinds := workload.ViolationKinds()
	for i := 0; i < trials; i++ {
		exec, orders := workload.GenerateCoherent(rng, workload.GenConfig{
			Processors: 2 + rng.Intn(3),
			OpsPerProc: 4 + rng.Intn(8),
			Addresses:  1 + rng.Intn(3),
			Values:     3,
		})
		if i%2 == 1 {
			mut, err := workload.Inject(rng, exec, kinds[rng.Intn(len(kinds))])
			if err == nil {
				exec = mut
			}
		}
		out = append(out, struct {
			exec   *memory.Execution
			orders map[memory.Addr][]memory.Ref
		}{exec, orders})
	}
	return out
}

// normStats strips wall-clock time, the only nondeterministic Stats
// field, so runs are comparable.
func normStats(s solver.Stats) solver.Stats {
	s.Duration = 0
	return s
}

func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: nil mismatch (%v vs %v)", label, a, b)
	}
	if a == nil {
		return
	}
	if a.Coherent != b.Coherent || a.Decided != b.Decided || a.Algorithm != b.Algorithm {
		t.Errorf("%s: verdict mismatch: (%v,%v,%s) vs (%v,%v,%s)",
			label, a.Coherent, a.Decided, a.Algorithm, b.Coherent, b.Decided, b.Algorithm)
	}
	if !reflect.DeepEqual(a.Schedule, b.Schedule) {
		t.Errorf("%s: schedule mismatch:\n%v\n%v", label, a.Schedule, b.Schedule)
	}
	if normStats(a.Stats) != normStats(b.Stats) {
		t.Errorf("%s: stats mismatch:\n%+v\n%+v", label, normStats(a.Stats), normStats(b.Stats))
	}
}

// TestFacadeCheckpointParity pins VerifyCheckpoint to Verify on a fresh
// (non-resumed) run: the checkpointed loop climbs the same ladder.
func TestFacadeCheckpointParity(t *testing.T) {
	ctx := context.Background()
	v := NewVerifier()
	for n, tc := range parityTraces(t, 6) {
		ck, cerr := v.VerifyCheckpoint(ctx, tc.exec, nil)
		rep, err := v.Verify(ctx, tc.exec)
		if cerr != nil || err != nil {
			t.Fatalf("trial %d: errors: %v / %v", n, cerr, err)
		}
		if ck.Checkpoint != nil {
			t.Fatalf("trial %d: unexpected checkpoint on unbudgeted run", n)
		}
		if len(ck.Addrs) != len(rep.Addrs) {
			t.Fatalf("trial %d: %d vs %d addresses", n, len(ck.Addrs), len(rep.Addrs))
		}
		for i := range rep.Addrs {
			sameResult(t, "VerifyCheckpoint", ck.Addrs[i].Result, rep.Addrs[i].Result)
		}
	}
}

// TestVerifierReportShape pins the Report invariants the service relies
// on: Addrs sorted ascending and aggregate stats equal to the
// per-address sum.
func TestVerifierReportShape(t *testing.T) {
	for _, tc := range parityTraces(t, 8) {
		rep, err := NewVerifier().Verify(context.Background(), tc.exec)
		if err != nil {
			t.Fatal(err)
		}
		var agg Stats
		for i := range rep.Addrs {
			if i > 0 && rep.Addrs[i-1].Addr >= rep.Addrs[i].Addr {
				t.Fatalf("Addrs not sorted: %v >= %v", rep.Addrs[i-1].Addr, rep.Addrs[i].Addr)
			}
			agg.Merge(rep.Addrs[i].Stats)
		}
		if normStats(agg) != normStats(rep.Stats) {
			t.Errorf("aggregate stats mismatch:\n%+v\n%+v", agg, rep.Stats)
		}
	}
}

// TestVerifyUntouchedFinalAddress: an address no operation touches is
// still checked when it declares a final value. With init x 1 and
// final x 0 no schedule can end with x = 0, so every strategy, with and
// without a parallel-search team, and the checkpointed loop report x
// incoherent; with init x 0 the same trace is coherent at both
// addresses.
func TestVerifyUntouchedFinalAddress(t *testing.T) {
	ctx := context.Background()
	const x, y = memory.Addr(0), memory.Addr(1)
	for _, initX := range []memory.Value{1, 0} {
		exec := memory.NewExecution(memory.History{memory.W(y, 1)}).SetInitial(x, initX).SetFinal(x, 0)
		want := VerdictIncoherent
		if initX == 0 {
			want = VerdictCoherent
		}
		check := func(label string, rep *Report, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("init x %d, %s: %v", initX, label, err)
			}
			if rep.Verdict != want || len(rep.Addrs) != 2 || rep.Addrs[0].Addr != x || rep.Addrs[0].Verdict != want {
				t.Fatalf("init x %d, %s: verdict %s with addresses %+v, want %s at x", initX, label, rep.Verdict, rep.Addrs, want)
			}
		}
		for _, spelling := range presetSpellings {
			strat, err := solver.ParseStrategy(spelling)
			if err != nil {
				t.Fatal(err)
			}
			for _, psearch := range []int{0, 2} {
				rep, err := NewVerifier(solver.WithStrategy(strat), solver.WithBudget(solver.WithParallelSearch(psearch))).Verify(ctx, exec)
				check(fmt.Sprintf("%s with psearch %d", spelling, psearch), rep, err)
			}
		}
		rep, err := NewVerifier().VerifyCheckpoint(ctx, exec, nil)
		check("checkpointed", rep, err)
	}
}

// TestVerifyMatchesSolveAddr pins the address loop's one-pass
// projection to the single-address entry point: under every strategy
// spelling, unbounded and under a 10-state budget, VerifyEach hands over
// every checked address in order with the report SolveAddr gives it —
// verdict, rung, algorithm, certificate, evidence and stats — or the
// same budget trip. The corpus includes an address that no operation
// touches but that declares a final value.
func TestVerifyMatchesSolveAddr(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(17))
	var execs []*memory.Execution
	for i := 0; i < 20; i++ {
		execs = append(execs, multiAddressInstance(rng, 2+rng.Intn(4)))
	}
	for _, tc := range parityTraces(t, 8) {
		execs = append(execs, tc.exec)
	}
	execs = append(execs, memory.NewExecution(memory.History{memory.W(1, 1)}).SetInitial(0, 1).SetFinal(0, 0))
	for _, spelling := range presetSpellings {
		strat, err := solver.ParseStrategy(spelling)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int{0, 10} {
			v := NewVerifier(solver.WithStrategy(strat), solver.WithBudget(solver.WithMaxStates(budget)))
			for n, exec := range execs {
				addrs := exec.CheckedAddresses()
				i := 0
				err := v.VerifyEach(ctx, exec, nil, func(got *AddrReport, err error) bool {
					label := fmt.Sprintf("%s max-states=%d instance %d addr %d", spelling, budget, n, addrs[i])
					want, werr := v.SolveAddr(ctx, exec, addrs[i])
					if got.Addr != addrs[i] || (err == nil) != (werr == nil) {
						t.Fatalf("%s: VerifyEach (addr %d, err %v) != SolveAddr (err %v)", label, got.Addr, err, werr)
					}
					i++
					if err != nil {
						return true
					}
					if got.Verdict != want.Verdict || got.Rung != want.Rung || got.Replayed ||
						!reflect.DeepEqual(got.Checks, want.Checks) || normStats(got.Stats) != normStats(want.Stats) {
						t.Fatalf("%s: VerifyEach %+v != SolveAddr %+v", label, got, want)
					}
					sameResult(t, label, got.Result, want.Result)
					return true
				})
				if err != nil || i != len(addrs) {
					t.Fatalf("%s instance %d: visited %d of %d addresses (err %v)", spelling, n, i, len(addrs), err)
				}
			}
		}
	}
}

// TestVerifyEachStops: the loop ends at the address whose visit returns
// false, and a validation error reaches the caller before any visit.
func TestVerifyEachStops(t *testing.T) {
	ctx := context.Background()
	exec := multiAddressInstance(rand.New(rand.NewSource(5)), 4)
	var seen []memory.Addr
	err := NewVerifier().VerifyEach(ctx, exec, nil, func(ar *AddrReport, err error) bool {
		seen = append(seen, ar.Addr)
		return len(seen) < 2
	})
	if err != nil || !reflect.DeepEqual(seen, []memory.Addr{0, 1}) {
		t.Fatalf("visited %v (err %v), want [0 1]", seen, err)
	}
	bad := memory.NewExecution(memory.History{{Kind: memory.Kind(99), Addr: 0}})
	if err := NewVerifier().VerifyEach(ctx, bad, nil, func(*AddrReport, error) bool {
		t.Fatal("visit called on an invalid execution")
		return false
	}); err == nil {
		t.Fatal("invalid execution accepted")
	}
}

// TestVerifyBudgetTripIsNotCoherent: a Verify the budget stops returns
// a partial Report whose verdict is never Coherent. Stopped at its only
// address it is Unknown; stopped after an address it covers was found
// incoherent, Incoherent. The same holds for VerifyCheckpoint.
func TestVerifyBudgetTripIsNotCoherent(t *testing.T) {
	ctx := context.Background()
	v := NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithBudget(solver.WithMaxStates(5)))

	rep, err := v.Verify(ctx, hardIncoherentExec(3, 6))
	if _, ok := solver.AsBudgetError(err); !ok {
		t.Fatalf("err = %v, want a budget error", err)
	}
	if rep == nil || len(rep.Addrs) != 0 || rep.Verdict != VerdictUnknown || rep.Coherent() {
		t.Fatalf("partial report %+v, want no addresses and verdict %v", rep, VerdictUnknown)
	}

	// Address 0 reads a value nothing writes; address 1 is the hard
	// instance, moved there.
	exec := hardIncoherentExec(3, 6)
	for _, h := range exec.Histories {
		for i := range h {
			h[i].Addr = 1
		}
	}
	exec.Final = map[memory.Addr]memory.Value{1: exec.Final[0]}
	exec.Histories[0] = append(memory.History{memory.R(0, 9)}, exec.Histories[0]...)
	exec.SetInitial(0, 0)
	for name, verify := range map[string]func() (*Report, error){
		"Verify":           func() (*Report, error) { return v.Verify(ctx, exec) },
		"VerifyCheckpoint": func() (*Report, error) { return v.VerifyCheckpoint(ctx, exec, nil) },
	} {
		rep, err := verify()
		if _, ok := solver.AsBudgetError(err); !ok {
			t.Fatalf("%s: err = %v, want a budget error", name, err)
		}
		if len(rep.Addrs) != 1 || rep.Addrs[0].Verdict != VerdictIncoherent || rep.Verdict != VerdictIncoherent {
			t.Fatalf("%s: partial report %+v, want address 0 incoherent and verdict %v", name, rep, VerdictIncoherent)
		}
	}
}
