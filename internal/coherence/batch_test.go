package coherence

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// batchJobs builds a mixed bag of batch jobs: random multi-address
// instances plus coherent-by-construction single-address traces, the
// litmus-sized shapes the batch driver exists for.
func batchJobs(rng *rand.Rand, n int) []BatchJob {
	var jobs []BatchJob
	for len(jobs) < n {
		if rng.Intn(3) == 0 {
			exec, _ := randomCoherentTrace(rng, 2+rng.Intn(2), 2+rng.Intn(4), 1+rng.Intn(3))
			jobs = append(jobs, BatchJob{Exec: exec, Addr: 0})
			continue
		}
		exec := randomInstance(rng)
		for _, a := range exec.Addresses() {
			jobs = append(jobs, BatchJob{Exec: exec, Addr: a})
		}
	}
	return jobs[:n]
}

// TestSolveBatchParity: SolveBatch must agree with a loop over
// Verifier.Solve on verdict, decidedness and algorithm, and its
// certificates must check against the original executions.
func TestSolveBatchParity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	jobs := batchJobs(rng, 500)
	v := NewVerifier()
	got := v.SolveBatch(context.Background(), jobs)
	if len(got) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(got), len(jobs))
	}
	for i, job := range jobs {
		want, err := v.Solve(context.Background(), job.Exec, job.Addr)
		if err != nil {
			t.Fatalf("job %d: looped solve failed: %v", i, err)
		}
		br := &got[i]
		if br.Err != nil {
			t.Fatalf("job %d: batch error: %v", i, br.Err)
		}
		if br.Result.Coherent != want.Coherent {
			t.Fatalf("job %d: verdict mismatch: batch=%v loop=%v", i, br.Result.Coherent, want.Coherent)
		}
		if br.Result.Algorithm != want.Algorithm {
			t.Fatalf("job %d: algorithm mismatch: batch=%q loop=%q",
				i, br.Result.Algorithm, want.Algorithm)
		}
		if br.Result.Coherent {
			if err := memory.CheckCoherent(job.Exec, job.Addr, br.Result.Schedule); err != nil {
				t.Fatalf("job %d: invalid batch certificate: %v", i, err)
			}
		}
	}
}

// TestSolveBatchExactStrategy: StrategyExact skips the polynomial
// specialists in the batch exactly as it does everywhere.
func TestSolveBatchExactStrategy(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	jobs := batchJobs(rng, 100)
	v := NewVerifier(solver.WithStrategy(solver.StrategyExact))
	for i, br := range v.SolveBatch(context.Background(), jobs) {
		if br.Err != nil {
			t.Fatalf("job %d: %v", i, br.Err)
		}
		if br.Result.Algorithm != "general-search" {
			t.Fatalf("job %d: exact batch used %q", i, br.Result.Algorithm)
		}
		want, err := v.Solve(context.Background(), jobs[i].Exec, jobs[i].Addr)
		if err != nil {
			t.Fatal(err)
		}
		if br.Result.Coherent != want.Coherent {
			t.Fatalf("job %d: verdict mismatch", i)
		}
	}
}

// TestSolveBatchMatchesSolveAddr: every job climbs the same ladder as
// SolveAddr, so under every strategy spelling the two agree on verdict,
// deciding rung, Stats.Rung, algorithm and evidence — including the
// degradation rungs a tight budget forces and the fast rung.
func TestSolveBatchMatchesSolveAddr(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(41))
	jobs := batchJobs(rng, 60)
	jobs = append(jobs,
		BatchJob{Exec: manyWriteExecution(), Addr: 0},
		BatchJob{Exec: hardExecution(), Addr: 0},
		BatchJob{Exec: memory.NewExecution(
			memory.History{memory.W(0, 1), memory.W(0, 2)},
			memory.History{memory.R(0, 1), memory.R(0, 2)},
		), Addr: 0},
	)
	for _, spelling := range []string{"auto", "fast", "portfolio", "exact", "resilient"} {
		strat, err := solver.ParseStrategy(spelling)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int{0, 10} {
			v := NewVerifier(solver.WithStrategy(strat), solver.WithBudget(solver.WithMaxStates(budget)))
			for i, br := range v.SolveBatch(ctx, jobs) {
				label := fmt.Sprintf("%s max-states=%d job %d", spelling, budget, i)
				want, err := v.SolveAddr(ctx, jobs[i].Exec, jobs[i].Addr)
				if (err == nil) != (br.Err == nil) {
					t.Fatalf("%s: error mismatch: batch %v, SolveAddr %v", label, br.Err, err)
				}
				if err != nil {
					continue
				}
				got := &br.AddrReport
				if got.Verdict != want.Verdict || got.Rung != want.Rung || got.Stats.Rung != want.Stats.Rung ||
					len(got.Checks) != len(want.Checks) || algorithm(got) != algorithm(want) {
					t.Fatalf("%s: batch (%s, rung=%s, Stats.Rung=%d, %s, %d checks) != SolveAddr (%s, rung=%s, Stats.Rung=%d, %s, %d checks)",
						label, got.Verdict, got.Rung, got.Stats.Rung, algorithm(got), len(got.Checks),
						want.Verdict, want.Rung, want.Stats.Rung, algorithm(want), len(want.Checks))
				}
			}
		}
	}
}

// algorithm names the deciding algorithm of a report ("" for Unknown).
func algorithm(ar *AddrReport) string {
	if ar.Result == nil {
		return ""
	}
	return ar.Result.Algorithm
}

// TestSolveBatchValidationError: one invalid execution fails its own
// jobs only; sibling jobs over valid executions still decide.
func TestSolveBatchValidationError(t *testing.T) {
	good, _ := randomCoherentTrace(rand.New(rand.NewSource(1)), 2, 3, 2)
	bad := &memory.Execution{Histories: []memory.History{{memory.Op{Kind: memory.Kind(99), Addr: 0}}}}
	jobs := []BatchJob{
		{Exec: good, Addr: 0},
		{Exec: bad, Addr: 0},
		{Exec: good, Addr: 0},
	}
	res := NewVerifier().SolveBatch(context.Background(), jobs)
	if res[0].Err != nil || res[2].Err != nil {
		t.Fatalf("valid jobs failed: %v / %v", res[0].Err, res[2].Err)
	}
	if !res[0].Result.Coherent || !res[2].Result.Coherent {
		t.Fatal("valid jobs judged incoherent")
	}
	if res[1].Err == nil {
		t.Fatal("invalid execution's job did not fail")
	}
}

// TestSolveBatchCancellation: a dead context marks remaining jobs with a
// Canceled budget error instead of fabricating verdicts.
func TestSolveBatchCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	jobs := batchJobs(rng, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, br := range NewVerifier().SolveBatch(ctx, jobs) {
		if br.Err == nil {
			t.Fatalf("job %d: verdict from a cancelled batch", i)
		}
		if be, ok := solver.AsBudgetError(br.Err); !ok || be.Reason != solver.Canceled {
			t.Fatalf("job %d: got %v, want Canceled", i, br.Err)
		}
	}
}

// TestSolveBatchBudget: a tiny state budget trips on hard jobs in the
// batch exactly as it does in the loop, with the error carried per job.
func TestSolveBatchBudget(t *testing.T) {
	hard := hardIncoherentExec(3, 6)
	easy := &memory.Execution{Histories: []memory.History{{memory.W(0, 1)}, {memory.R(0, 1)}}}
	jobs := []BatchJob{{Exec: easy, Addr: 0}, {Exec: hard, Addr: 0}, {Exec: easy, Addr: 0}}
	v := NewVerifier(solver.WithBudget(solver.WithMaxStates(50)), solver.WithStrategy(solver.StrategyExact))
	res := v.SolveBatch(context.Background(), jobs)
	if res[0].Err != nil || res[2].Err != nil {
		t.Fatalf("easy jobs failed: %v / %v", res[0].Err, res[2].Err)
	}
	be, ok := solver.AsBudgetError(res[1].Err)
	if !ok {
		t.Fatalf("hard job: got %v, want budget error", res[1].Err)
	}
	if be.Reason != solver.ExceededStates {
		t.Fatalf("hard job: reason=%v", be.Reason)
	}
}

// TestSolveBatchIdentityProjection: a single-address execution projects
// onto itself; refs in the certificate must be valid refs into the
// original execution.
func TestSolveBatchIdentityProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 50; trial++ {
		exec, _ := randomCoherentTrace(rng, 3, 5, 2)
		res := NewVerifier().SolveBatch(context.Background(), []BatchJob{{Exec: exec, Addr: 0}})
		if res[0].Err != nil {
			t.Fatal(res[0].Err)
		}
		if !res[0].Result.Coherent {
			t.Fatalf("trial %d: coherent trace judged incoherent", trial)
		}
		if err := memory.CheckCoherent(exec, 0, res[0].Result.Schedule); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestSolveBatchReport: the embedded AddrReport carries the job's
// address and the three-valued verdict, Unknown and its evidence
// included.
func TestSolveBatchReport(t *testing.T) {
	ctx := context.Background()
	exec, _ := randomCoherentTrace(rand.New(rand.NewSource(53)), 2, 4, 2)
	res := NewVerifier().SolveBatch(ctx, []BatchJob{{Exec: exec, Addr: 0}})
	if ar := res[0].AddrReport; res[0].Err != nil || ar.Addr != 0 || ar.Verdict != VerdictCoherent ||
		ar.Result == nil || !ar.Result.Coherent {
		t.Fatalf("bad report: %+v (err %v)", ar, res[0].Err)
	}
	v := NewVerifier(solver.WithStrategy(solver.StrategyResilient), solver.WithBudget(solver.WithMaxStates(10)))
	res = v.SolveBatch(ctx, []BatchJob{{Exec: manyWriteExecution(), Addr: 0}})
	if ar := res[0].AddrReport; res[0].Err != nil || ar.Verdict != VerdictUnknown || ar.Result != nil ||
		ar.Rung != RungNecessary || len(ar.Checks) == 0 {
		t.Fatalf("undecided report: %+v (err %v)", ar, res[0].Err)
	}
}

// BenchmarkSolveBatchVsLoop measures the batch driver against a loop of
// Verifier.Solve over the same jobs — the PR 10 throughput claim in
// miniature (cmd/bench -psearch measures the full version).
func BenchmarkSolveBatchVsLoop(b *testing.B) {
	rng := rand.New(rand.NewSource(61))
	jobs := batchJobs(rng, 256)
	v := NewVerifier()
	b.Run("loop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, j := range jobs {
				if _, err := v.Solve(context.Background(), j.Exec, j.Addr); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res := v.SolveBatch(context.Background(), jobs)
			for j := range res {
				if res[j].Err != nil {
					b.Fatal(res[j].Err)
				}
			}
		}
	})
}
