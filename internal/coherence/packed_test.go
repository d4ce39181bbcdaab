package coherence

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// TestPackedLayoutRoundTrip: for random instances that fit the packed
// layout, pack -> string-key decode must be byte-identical to the
// searcher's own varint key, and string-key parse must invert pack.
func TestPackedLayoutRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 500; trial++ {
		inst := project(randomInstance(rng), 0)
		l := new(packedLayout)
		if !l.build(inst) {
			t.Fatalf("trial %d: small instance overflowed the packed layout", trial)
		}
		s := &searcher{inst: inst, pos: make([]int, len(inst.hist))}
		// Walk a random valid state: advance random positions, tracking a
		// plausible (cur, bound) from the instance's value table.
		for i := range s.pos {
			s.pos[i] = rng.Intn(len(inst.hist[i]) + 1)
		}
		if len(l.vals) > 0 && rng.Intn(2) == 0 {
			s.cur, s.bound = l.vals[rng.Intn(len(l.vals))], true
		}
		want := s.key()
		k := l.pack(s.pos, s.cur, s.bound)
		if got := string(l.appendStringKey(nil, k)); got != want {
			t.Fatalf("trial %d: decoded key %x, searcher key %x", trial, got, want)
		}
		back, ok := l.parseStringKey(want)
		if !ok || back != k {
			t.Fatalf("trial %d: parse(%x) = (%x, %v), want (%x, true)", trial, want, back, ok, k)
		}
	}
}

// TestPackedLayoutOverflow: instances too wide for 63 bits must be
// rejected so the searcher falls back to the string memo.
func TestPackedLayoutOverflow(t *testing.T) {
	// 70 histories of 3 ops each need 70 × 2 position bits > 63.
	exec := &memory.Execution{}
	for p := 0; p < 70; p++ {
		exec.Histories = append(exec.Histories, memory.History{
			memory.W(0, memory.Value(p)), memory.R(0, memory.Value(p)), memory.W(0, memory.Value(p)),
		})
	}
	if new(packedLayout).build(project(exec, 0)) {
		t.Fatal("oversized instance accepted by the packed layout")
	}
	// The fallback must still solve it (budgeted: the instance is huge).
	_, err := NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithBudget(solver.WithMaxStates(2000))).Solve(context.Background(), exec, 0)
	if err != nil {
		if _, ok := solver.AsBudgetError(err); !ok {
			t.Fatalf("fallback solve failed: %v", err)
		}
	}
}

// TestPackedParseRejectsGarbage: corrupted memo keys are dropped, not
// mis-ingested.
func TestPackedParseRejectsGarbage(t *testing.T) {
	inst := project(memory.NewExecution(
		memory.History{memory.W(0, 1), memory.R(0, 2)},
		memory.History{memory.W(0, 2)},
	).SetInitial(0, 0), 0)
	l := new(packedLayout)
	if !l.build(inst) {
		t.Fatal("layout expected")
	}
	for _, bad := range []string{
		"",                 // truncated positions
		"\x01",             // missing bound byte
		"\x01\x01\x02",     // bound flag neither 0 nor 1
		"\x07\x00\x00",     // position beyond the field width
		"\x01\x01\x01\x7f", // bound value not in the instance
		"\x01\x01\x00\x00", // trailing bytes
	} {
		if k, ok := l.parseStringKey(bad); ok {
			t.Errorf("corrupted key %x parsed to %x", bad, k)
		}
	}
}

// TestPackedSetBasic exercises the open-addressing set across growth.
func TestPackedSetBasic(t *testing.T) {
	var ps packedSet
	ps.reset()
	rng := rand.New(rand.NewSource(42))
	ref := make(map[uint64]bool)
	for i := 0; i < 50_000; i++ {
		k := rng.Uint64() >> 1 // layouts are ≤ 63 bits
		if ps.contains(k) != ref[k] {
			t.Fatalf("contains(%x) = %v before insert, want %v", k, !ref[k], ref[k])
		}
		ps.add(k)
		ref[k] = true
		if !ps.contains(k) {
			t.Fatalf("key %x lost after add", k)
		}
	}
	if ps.size() != len(ref) {
		t.Fatalf("size = %d, want %d", ps.size(), len(ref))
	}
	seen := 0
	ps.each(func(k uint64) {
		if !ref[k] {
			t.Fatalf("each yielded unknown key %x", k)
		}
		seen++
	})
	if seen != len(ref) {
		t.Fatalf("each yielded %d keys, want %d", seen, len(ref))
	}
}

// TestPackedMemoOracle is the cross-check satellite: on randomized
// instances the packed-key and string-key memo representations must
// explore identical state counts and return identical verdicts and
// schedules — the memo representation is an implementation detail of
// the same deterministic search.
func TestPackedMemoOracle(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 400; trial++ {
		exec := randomInstance(rng)
		packed, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(ctx, exec, 0)
		if err != nil {
			t.Fatal(err)
		}
		str, err := NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithBudget(solver.WithoutPackedMemo())).Solve(ctx, exec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if packed.Coherent != str.Coherent {
			t.Fatalf("trial %d: packed verdict %v, string verdict %v", trial, packed.Coherent, str.Coherent)
		}
		if packed.Stats.States != str.Stats.States ||
			packed.Stats.MemoHits != str.Stats.MemoHits ||
			packed.Stats.MemoMisses != str.Stats.MemoMisses ||
			packed.Stats.Branches != str.Stats.Branches {
			t.Fatalf("trial %d: packed stats %+v, string stats %+v", trial, packed.Stats, str.Stats)
		}
		if !reflect.DeepEqual(packed.Schedule, str.Schedule) {
			t.Fatalf("trial %d: packed schedule %v, string schedule %v", trial, packed.Schedule, str.Schedule)
		}
	}
}

// TestPackedMemoOracleAblations repeats the cross-check under each
// search ablation, so the representations stay interchangeable in every
// configuration, not just the default.
func TestPackedMemoOracleAblations(t *testing.T) {
	ctx := context.Background()
	for _, ab := range []struct {
		name string
		opt  solver.Option
	}{
		{"no-eager", solver.WithoutEagerReads()},
	} {
		t.Run(ab.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(44))
			for trial := 0; trial < 150; trial++ {
				exec := randomInstance(rng)
				packed, err := NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithBudget(ab.opt)).Solve(ctx, exec, 0)
				if err != nil {
					t.Fatal(err)
				}
				str, err := NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithBudget(ab.opt, solver.WithoutPackedMemo())).Solve(ctx, exec, 0)
				if err != nil {
					t.Fatal(err)
				}
				if packed.Coherent != str.Coherent || packed.Stats.States != str.Stats.States {
					t.Fatalf("trial %d: packed (%v, %d states) vs string (%v, %d states)",
						trial, packed.Coherent, packed.Stats.States, str.Coherent, str.Stats.States)
				}
			}
		})
	}
}

// TestPackedSetResetSizedBookkeeping pins the pooled-reset contract on
// every path through resetSized: the fill count is zeroed, stale keys
// vanish, and the retained-versus-reallocated decision follows the
// documented bounds.
func TestPackedSetResetSizedBookkeeping(t *testing.T) {
	var ps packedSet

	// Fresh set: resetSized allocates the clamped, power-of-two size.
	ps.resetSized(100)
	if len(ps.slots) != 128 || ps.n != 0 {
		t.Fatalf("fresh resetSized(100): len=%d n=%d, want 128, 0", len(ps.slots), ps.n)
	}

	// A retained table must not resurrect previous keys or their count.
	for k := uint64(1); k <= 60; k++ {
		ps.add(k)
	}
	grown := len(ps.slots)
	ps.resetSized(64)
	if ps.n != 0 {
		t.Fatalf("retained reset kept n=%d", ps.n)
	}
	if len(ps.slots) != grown {
		t.Fatalf("small reset reallocated: len=%d, want retained %d", len(ps.slots), grown)
	}
	for k := uint64(1); k <= 60; k++ {
		if ps.contains(k) {
			t.Fatalf("key %d survived reset", k)
		}
	}

	// Asking for more than the retained table has reallocates.
	ps.resetSized(packedSetMinSlots)
	if len(ps.slots) != packedSetMinSlots {
		t.Fatalf("upsizing reset: len=%d, want %d", len(ps.slots), packedSetMinSlots)
	}

	// The clamp: resetSized never exceeds packedSetMinSlots nor drops
	// below packedSetMinBatchSlots.
	var ps2 packedSet
	ps2.resetSized(1 << 20)
	if len(ps2.slots) != packedSetMinSlots {
		t.Fatalf("oversize ask: len=%d, want clamp %d", len(ps2.slots), packedSetMinSlots)
	}
	var ps3 packedSet
	ps3.resetSized(1)
	if len(ps3.slots) != packedSetMinBatchSlots {
		t.Fatalf("undersize ask: len=%d, want clamp %d", len(ps3.slots), packedSetMinBatchSlots)
	}
}

// TestPackedSetGrowNearRetainBound is the high-load-factor stress around
// packedSetMaxRetainSlots: grow the table just past the retain bound
// under sustained 3/4-load insertion, verify nothing is lost at peak,
// then confirm the pooled reset drops the oversized table instead of
// clearing megabytes, and that the set still works afterwards.
func TestPackedSetGrowNearRetainBound(t *testing.T) {
	var ps packedSet
	ps.reset()
	rng := rand.New(rand.NewSource(77))
	// 3/4 of 2^16 is the last fill that fits the retain bound; pushing a
	// few thousand past it forces the doubling to 2^17 > retain bound.
	target := packedSetMaxRetainSlots/4*3 + 4096
	keys := make([]uint64, 0, target)
	for len(keys) < target {
		k := rng.Uint64() >> 1
		keys = append(keys, k)
		ps.add(k)
	}
	if len(ps.slots) <= packedSetMaxRetainSlots {
		t.Fatalf("table did not grow past the retain bound: len=%d", len(ps.slots))
	}
	for i, k := range keys {
		if !ps.contains(k) {
			t.Fatalf("key %d (%x) lost during growth", i, k)
		}
	}
	if ps.size() > target {
		t.Fatalf("size=%d exceeds inserts=%d", ps.size(), target)
	}

	ps.reset()
	if len(ps.slots) != packedSetMinSlots {
		t.Fatalf("reset after oversized table: len=%d, want fresh %d", len(ps.slots), packedSetMinSlots)
	}
	if ps.n != 0 {
		t.Fatalf("reset kept n=%d", ps.n)
	}
	for _, k := range keys[:1000] {
		if ps.contains(k) {
			t.Fatalf("key %x survived the drop-reallocate reset", k)
		}
	}
	ps.add(42)
	if !ps.contains(42) || ps.size() != 1 {
		t.Fatal("set unusable after reset")
	}
}
