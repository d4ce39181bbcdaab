package coherence

import (
	"context"
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
// on: Addrs sorted ascending, aggregate stats equal to the per-address
// sum, and AddressesByHardness a permutation of Addresses.
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
		byHard := AddressesByHardness(tc.exec)
		if len(byHard) != len(tc.exec.Addresses()) {
			t.Fatalf("AddressesByHardness dropped addresses")
		}
		seen := map[memory.Addr]bool{}
		for _, a := range byHard {
			if seen[a] {
				t.Fatalf("AddressesByHardness duplicated %v", a)
			}
			seen[a] = true
		}
	}
}
