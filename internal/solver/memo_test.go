package solver

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestMemoSetBasic exercises the set across growth, for one-word keys
// and for multi-word keys that differ only in a later word.
func TestMemoSetBasic(t *testing.T) {
	for _, w := range []int{1, 3} {
		t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
			var m MemoSet
			m.Reset(w, memoMinSlots)
			rng := rand.New(rand.NewSource(42))
			ref := make(map[[3]uint64]bool)
			key := make([]uint64, w)
			for i := 0; i < 50_000; i++ {
				var k [3]uint64
				for j := range key {
					// Layouts keep words ≤ 63 bits; few distinct first
					// words force collisions on key[0].
					key[j] = rng.Uint64() >> 1
					if j == 0 && w > 1 {
						key[j] %= 16
					}
					k[j] = key[j]
				}
				if m.Contains(key) != ref[k] {
					t.Fatalf("Contains(%x) = %v before insert, want %v", key, !ref[k], ref[k])
				}
				if added := m.Add(key); added == ref[k] {
					t.Fatalf("Add(%x) = %v, want %v", key, added, !ref[k])
				}
				ref[k] = true
				if !m.Contains(key) {
					t.Fatalf("key %x lost after add", key)
				}
			}
			if m.Len() != len(ref) {
				t.Fatalf("Len = %d, want %d", m.Len(), len(ref))
			}
			seen := 0
			m.Each(func(key []uint64) {
				var k [3]uint64
				copy(k[:], key)
				if !ref[k] {
					t.Fatalf("Each yielded unknown key %x", key)
				}
				seen++
			})
			if seen != len(ref) {
				t.Fatalf("Each yielded %d keys, want %d", seen, len(ref))
			}
		})
	}
}

// TestMemoSetResetBookkeeping pins the pooled-reset contract on every
// path through Reset: the fill count is zeroed, stale keys vanish, and
// the retained-versus-reallocated decision follows the documented
// bounds.
func TestMemoSetResetBookkeeping(t *testing.T) {
	var m MemoSet
	slots := func() int { return int(m.mask) + 1 }

	// Fresh set: Reset allocates the clamped, power-of-two size.
	m.Reset(1, 100)
	if slots() != 128 || m.n != 0 {
		t.Fatalf("fresh Reset(1, 100): slots=%d n=%d, want 128, 0", slots(), m.n)
	}

	// A retained table must not resurrect previous keys or their count.
	for k := uint64(1); k <= 60; k++ {
		m.Add([]uint64{k})
	}
	grown := slots()
	m.Reset(1, 64)
	if m.n != 0 {
		t.Fatalf("retained reset kept n=%d", m.n)
	}
	if slots() != grown {
		t.Fatalf("small reset reallocated: slots=%d, want retained %d", slots(), grown)
	}
	for k := uint64(1); k <= 60; k++ {
		if m.Contains([]uint64{k}) {
			t.Fatalf("key %d survived reset", k)
		}
	}

	// Asking for more than the retained table has reallocates.
	m.Reset(1, memoMinSlots)
	if slots() != memoMinSlots {
		t.Fatalf("upsizing reset: slots=%d, want %d", slots(), memoMinSlots)
	}

	// A new key width reallocates at the new width.
	m.Reset(2, memoMinSlots)
	if m.w != 2 || len(m.slots) != 2*memoMinSlots {
		t.Fatalf("width change: w=%d words=%d, want 2, %d", m.w, len(m.slots), 2*memoMinSlots)
	}

	// The clamp: Reset never exceeds memoMinSlots nor drops below
	// memoMinBatchSlots.
	var m2 MemoSet
	m2.Reset(1, 1<<20)
	if int(m2.mask)+1 != memoMinSlots {
		t.Fatalf("oversize ask: slots=%d, want clamp %d", m2.mask+1, memoMinSlots)
	}
	var m3 MemoSet
	m3.Reset(1, 1)
	if int(m3.mask)+1 != memoMinBatchSlots {
		t.Fatalf("undersize ask: slots=%d, want clamp %d", m3.mask+1, memoMinBatchSlots)
	}
}

// TestMemoSetGrowNearRetainBound is the high-load-factor stress around
// memoMaxRetainWords: grow the table just past the retain bound under
// sustained 3/4-load insertion, verify nothing is lost at peak, then
// confirm the pooled reset drops the oversized table instead of
// clearing megabytes, and that the set still works afterwards.
func TestMemoSetGrowNearRetainBound(t *testing.T) {
	var m MemoSet
	m.Reset(1, memoMinSlots)
	rng := rand.New(rand.NewSource(77))
	// 3/4 of 2^16 is the last fill that fits the retain bound; pushing a
	// few thousand past it forces the doubling to 2^17 > retain bound.
	target := memoMaxRetainWords/4*3 + 4096
	keys := make([]uint64, 0, target)
	for len(keys) < target {
		k := rng.Uint64() >> 1
		keys = append(keys, k)
		m.Add([]uint64{k})
	}
	if len(m.slots) <= memoMaxRetainWords {
		t.Fatalf("table did not grow past the retain bound: words=%d", len(m.slots))
	}
	for i, k := range keys {
		if !m.Contains([]uint64{k}) {
			t.Fatalf("key %d (%x) lost during growth", i, k)
		}
	}
	if m.Len() > target {
		t.Fatalf("Len=%d exceeds inserts=%d", m.Len(), target)
	}

	m.Reset(1, memoMinSlots)
	if len(m.slots) != memoMinSlots {
		t.Fatalf("reset after oversized table: words=%d, want fresh %d", len(m.slots), memoMinSlots)
	}
	if m.n != 0 {
		t.Fatalf("reset kept n=%d", m.n)
	}
	for _, k := range keys[:1000] {
		if m.Contains([]uint64{k}) {
			t.Fatalf("key %x survived the drop-reallocate reset", k)
		}
	}
	m.Add([]uint64{42})
	if !m.Contains([]uint64{42}) || m.Len() != 1 {
		t.Fatal("set unusable after reset")
	}
}

// TestLayoutPacksFirstFit: fields fill a word first-fit, never straddle
// a word, and Get inverts Put.
func TestLayoutPacksFirstFit(t *testing.T) {
	var l Layout
	l.Reset()
	widths := []int{40, 20, 10, 63, 0, 1, 62}
	for _, w := range widths {
		l.Add(w)
	}
	// 40+20 | 10 | 63 | 0+1+62
	if l.Words() != 4 {
		t.Fatalf("Words = %d, want 4", l.Words())
	}
	key := make([]uint64, l.Words())
	rng := rand.New(rand.NewSource(5))
	vals := make([]uint64, len(widths))
	for f, w := range widths {
		vals[f] = rng.Uint64() & (1<<w - 1)
		l.Put(key, f, vals[f])
	}
	for f := range widths {
		if got := l.Get(key, f); got != vals[f] {
			t.Fatalf("field %d: Get = %x, want %x", f, got, vals[f])
		}
	}
	for i, k := range key {
		if k>>wordBits != 0 {
			t.Fatalf("word %d uses bit 63: %x", i, k)
		}
	}
}
