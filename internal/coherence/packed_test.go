package coherence

import (
	"context"
	"encoding/binary"
	"math/rand"
	"testing"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// stringKey is the checkpoint form of a one-slot state, written out
// independently of program.appendStringKey: uvarint(position) per
// history, then 0 when unbound or 1 and varint(value).
func stringKey(pos []int, cur memory.Value, bound bool) string {
	var buf []byte
	for _, p := range pos {
		buf = binary.AppendUvarint(buf, uint64(p))
	}
	if bound {
		buf = append(buf, 1)
		buf = binary.AppendVarint(buf, int64(cur))
	} else {
		buf = append(buf, 0)
	}
	return string(buf)
}

// TestPackedLayoutRoundTrip: for random single-address instances, a
// packed key renders to exactly the checkpoint string form (so
// checkpoints written before the kernel refactor still seed a resume),
// and parsing that string packs the same key.
func TestPackedLayoutRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var pg program
	for trial := 0; trial < 500; trial++ {
		pg.compileInstance(project(randomInstance(rng), 0))
		s := (&searcher{}).fresh(&pg)
		// Walk a random state: advance random positions and bind the slot
		// to a random value of the instance, or leave it unbound.
		for i := range s.pos {
			s.pos[i] = rng.Intn(len(pg.hist[i]) + 1)
		}
		s.val[0] = 0
		if n := pg.valOff[1]; n > 0 && rng.Intn(2) == 0 {
			s.val[0] = uint32(1 + rng.Intn(n))
		}
		key := make([]uint64, pg.layout.Words())
		s.pack(key)
		var cur memory.Value
		if s.val[0] != 0 {
			cur = pg.vals[s.val[0]-1]
		}
		want := stringKey(s.pos, cur, s.val[0] != 0)
		if got := string(pg.appendStringKey(nil, key)); got != want {
			t.Fatalf("trial %d: rendered key %x, want %x", trial, got, want)
		}
		back := make([]uint64, len(key))
		if !pg.parseStringKey(want, back) || back[0] != key[0] {
			t.Fatalf("trial %d: parse(%x) = %x, want %x", trial, want, back, key)
		}
	}
}

// TestPackedLayoutOverflow: an instance too wide for one 63-bit word
// gets a multi-word key, and the search runs on it like on any other.
func TestPackedLayoutOverflow(t *testing.T) {
	// 70 histories of 3 ops each need 70 × 2 position bits > 63.
	exec := &memory.Execution{}
	for p := 0; p < 70; p++ {
		exec.Histories = append(exec.Histories, memory.History{
			memory.W(0, memory.Value(p)), memory.R(0, memory.Value(p)), memory.W(0, memory.Value(p)),
		})
	}
	var pg program
	pg.compileInstance(project(exec, 0))
	if w := pg.layout.Words(); w < 3 {
		t.Fatalf("%d-word key for 140+ bits of state", w)
	}
	// Budgeted: the instance is huge.
	_, err := NewVerifier(solver.WithStrategy(solver.StrategyExact), solver.WithBudget(solver.WithMaxStates(2000))).Solve(context.Background(), exec, 0)
	if err != nil {
		if _, ok := solver.AsBudgetError(err); !ok {
			t.Fatalf("multi-word solve failed: %v", err)
		}
	}
}

// TestPackedParseRejectsGarbage: corrupted memo keys are dropped, not
// mis-ingested.
func TestPackedParseRejectsGarbage(t *testing.T) {
	var pg program
	pg.compileInstance(project(memory.NewExecution(
		memory.History{memory.W(0, 1), memory.R(0, 2)},
		memory.History{memory.W(0, 2)},
	).SetInitial(0, 0), 0))
	key := make([]uint64, pg.layout.Words())
	for _, bad := range []string{
		"",                 // truncated positions
		"\x01",             // missing bound byte
		"\x01\x01\x02",     // bound flag neither 0 nor 1
		"\x07\x00\x00",     // position beyond the field width
		"\x01\x01\x01\x7f", // bound value not in the instance
		"\x01\x01\x00\x00", // trailing bytes
	} {
		if pg.parseStringKey(bad, key) {
			t.Errorf("corrupted key %x parsed to %x", bad, key)
		}
	}
}
