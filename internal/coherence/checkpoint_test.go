package coherence

import (
	"context"
	"path/filepath"
	"slices"
	"testing"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// hardExecution needs the general memoized search (value 3 is written
// twice, so no Figure 5.3 specialist applies) and is incoherent; the
// uninterrupted search visits a deterministic 32 states.
func hardExecution() *memory.Execution {
	return memory.NewExecution(
		memory.History{memory.W(0, 1), memory.R(0, 2)},
		memory.History{memory.W(0, 2), memory.R(0, 1)},
		memory.History{memory.W(0, 3)},
		memory.History{memory.W(0, 3)},
	).SetInitial(0, 0)
}

// TestCheckpointRoundTrip is the acceptance test for checkpoint/resume:
// interrupt a search with a state budget, write the checkpoint to disk,
// read it back, and finish the search seeded from it. The resumed
// search must reach the same verdict as an uninterrupted one while
// re-exploring strictly fewer states (the saved memo table prunes the
// already-refuted subtrees).
func TestCheckpointRoundTrip(t *testing.T) {
	ctx := context.Background()
	exec := hardExecution()

	fresh, err := NewVerifier().Solve(ctx, exec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Coherent {
		t.Fatal("hard execution should be incoherent")
	}

	// Interrupted run: the budget trips mid-search, after the memo table
	// has real entries.
	rep, err := NewVerifier(solver.WithBudget(solver.WithMaxStates(20))).VerifyCheckpoint(ctx, exec, nil)
	if _, ok := solver.AsBudgetError(err); !ok {
		t.Fatalf("err = %v, want budget error", err)
	}
	ck := rep.Checkpoint
	if ck == nil || ck.Pending == nil {
		t.Fatalf("no pending search in checkpoint: %+v", ck)
	}
	if len(ck.Pending.Memo) == 0 {
		t.Fatal("checkpoint carries no memo entries; resume would replay everything")
	}
	if ck.Pending.Stats.States == 0 {
		t.Error("no partial stats in checkpoint")
	}

	// Disk round-trip through the checksummed envelope.
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := ck.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}

	// Resume without a budget: same verdict, strictly fewer states.
	rep, err = NewVerifier().VerifyCheckpoint(ctx, exec, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checkpoint != nil {
		t.Errorf("completed resume still returned a checkpoint: %+v", rep.Checkpoint)
	}
	res := rep.Results()[0]
	if res == nil || res.Coherent != fresh.Coherent {
		t.Fatalf("resumed verdict %+v != fresh verdict %+v", res, fresh)
	}
	if res.Stats.States >= fresh.Stats.States {
		t.Errorf("resumed search explored %d states, fresh %d — the memo seed pruned nothing",
			res.Stats.States, fresh.Stats.States)
	}
	if res.Stats.MemoHits == 0 {
		t.Error("resumed search had no memo hits; seed was not used")
	}
}

// TestCheckpointFingerprintMismatch: a checkpoint must not resume
// against a different execution — memo soundness depends on the
// instance being identical.
func TestCheckpointFingerprintMismatch(t *testing.T) {
	ctx := context.Background()
	rep, err := NewVerifier(solver.WithBudget(solver.WithMaxStates(5))).VerifyCheckpoint(ctx, hardExecution(), nil)
	if _, ok := solver.AsBudgetError(err); !ok {
		t.Fatalf("err = %v, want budget error", err)
	}
	other := memory.NewExecution(
		memory.History{memory.W(0, 7)},
		memory.History{memory.R(0, 7)},
	).SetInitial(0, 0)
	if _, err := NewVerifier().VerifyCheckpoint(ctx, other, rep.Checkpoint); err == nil {
		t.Fatal("checkpoint from a different execution accepted")
	}
}

// TestCheckpointReplaysCompletedAddresses: addresses finished before the
// interrupt are replayed from the checkpoint, not re-solved, and the
// replay is visible in the Algorithm annotation.
func TestCheckpointReplaysCompletedAddresses(t *testing.T) {
	ctx := context.Background()
	// Address 0 is trivial (decided by a specialist within any budget);
	// address 1 is the hard one that trips the budget.
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.W(1, 1), memory.R(1, 2)},
		memory.History{memory.R(0, 1), memory.W(1, 2), memory.R(1, 1)},
		memory.History{memory.W(1, 3)},
		memory.History{memory.W(1, 3)},
	).SetInitial(0, 0).SetInitial(1, 0)

	rep, err := NewVerifier(solver.WithBudget(solver.WithMaxStates(20))).VerifyCheckpoint(ctx, exec, nil)
	if _, ok := solver.AsBudgetError(err); !ok {
		t.Fatalf("err = %v, want budget error", err)
	}
	ck := rep.Checkpoint
	if len(ck.Done) != 1 || ck.Done[0].Addr != 0 {
		t.Fatalf("done list = %+v, want address 0 completed", ck.Done)
	}
	rep, err = NewVerifier().VerifyCheckpoint(ctx, exec, ck)
	if err != nil {
		t.Fatal(err)
	}
	results := rep.Results()
	if alg := results[0].Algorithm; len(alg) < 11 || alg[:11] != "checkpoint:" {
		t.Errorf("address 0 algorithm = %q, want checkpoint: replay", alg)
	}
	if results[1] == nil || results[1].Coherent {
		t.Errorf("address 1 = %+v, want incoherent after resume", results[1])
	}
}

// TestPeriodicSnapshots: with a small CheckpointEvery, the sink receives
// snapshots during the search, not only at the abort.
func TestPeriodicSnapshots(t *testing.T) {
	// Three cross-coupled pairs plus duplicate writes: enough states for
	// several 64-state poll windows.
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.R(0, 2)},
		memory.History{memory.W(0, 2), memory.R(0, 3)},
		memory.History{memory.W(0, 3), memory.R(0, 1)},
		memory.History{memory.W(0, 4)},
		memory.History{memory.W(0, 4)},
	).SetInitial(0, 0)
	calls := 0
	opts := &Options{
		CheckpointSink:  func(snap solver.SearchSnapshot) { calls++ },
		CheckpointEvery: 64,
	}
	if _, err := NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithOptions(opts)).Solve(context.Background(), exec, 0); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Error("no periodic snapshots on an unbudgeted solve")
	}
}

// BenchmarkCheckpointOverhead compares the search hot loop with
// checkpointing disabled (the default; must stay within noise of the
// seed) and enabled. The disabled case is the acceptance bar: the
// nil-sink test piggybacks on the existing every-64-states poll mask,
// so its cost must be <2%.
func BenchmarkCheckpointOverhead(b *testing.B) {
	exec := hardExecution()
	ctx := context.Background()
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(ctx, exec, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		opts := &Options{CheckpointSink: func(solver.SearchSnapshot) {}, CheckpointEvery: 64}
		for i := 0; i < b.N; i++ {
			if _, err := NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithOptions(opts)).Solve(ctx, exec, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestCheckpointMemoFormatCompat: a checkpoint written before the
// exact search moved onto the shared kernel and its multi-word memo
// (testdata/hard-maxstates20.ckpt.json, written by VerifyCheckpoint on
// hardExecution under MaxStates 20) still resumes: the resumed search
// reaches the fresh verdict, explores fewer states than a fresh solve
// and prunes with the saved keys. A checkpoint written now for the same
// run holds the same memo keys, so the format did not move.
func TestCheckpointMemoFormatCompat(t *testing.T) {
	ctx := context.Background()
	exec := hardExecution()
	fresh, err := NewVerifier().Solve(ctx, exec, 0)
	if err != nil {
		t.Fatal(err)
	}
	old, err := LoadCheckpoint(filepath.Join("testdata", "hard-maxstates20.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewVerifier().VerifyCheckpoint(ctx, exec, old)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results()[0]
	if res == nil || res.Coherent != fresh.Coherent {
		t.Fatalf("resumed verdict %+v != fresh verdict %+v", res, fresh)
	}
	if res.Stats.States >= fresh.Stats.States {
		t.Errorf("resumed search explored %d states, fresh %d — the old checkpoint pruned nothing",
			res.Stats.States, fresh.Stats.States)
	}
	if res.Stats.MemoHits == 0 {
		t.Error("resumed search had no memo hits; the old checkpoint's keys were not ingested")
	}

	rep, err = NewVerifier(solver.WithBudget(solver.WithMaxStates(20))).VerifyCheckpoint(ctx, exec, nil)
	if _, ok := solver.AsBudgetError(err); !ok {
		t.Fatalf("err = %v, want budget error", err)
	}
	now := rep.Checkpoint
	if now == nil || now.Pending == nil {
		t.Fatalf("no pending search in checkpoint: %+v", now)
	}
	got, want := slices.Clone(now.Pending.Memo), slices.Clone(old.Pending.Memo)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("memo keys moved:\n now %v\n old %v", got, want)
	}
	if now.Fingerprint != old.Fingerprint {
		t.Errorf("fingerprint moved: %s, was %s", now.Fingerprint, old.Fingerprint)
	}
}
