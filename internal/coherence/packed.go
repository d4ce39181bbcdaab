package coherence

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"memverify/internal/memory"
)

// The general search is bounded by the number of distinct states it
// memoizes — O(n^k · |D|), the paper's Section 5 constant-process bound —
// so the memo table is the hot path. A search state is (position vector,
// current-value binding); for every instance whose positions and value
// index fit in 63 bits (all of the paper's figures, and any realistic
// constant-process trace), the state packs into a single uint64 and the
// memo table becomes an open-addressing uint64 set with no per-state
// allocation. Instances that overflow the layout fall back transparently
// to the varint-string memo map (see searcher.key).

// packedLayoutBits caps the layout at 63 bits so the packedSet slot
// encoding (key+1, zero = empty) can never wrap.
const packedLayoutBits = 63

// packedLayout is the per-instance bit layout of a packed state key:
// one position field per history (wide enough for 0..len(hist)), then
// the current-value index, then one bound flag bit. The value index is
// a sorted slice searched with valIndex, not a map: layouts are built
// once per solve, and for litmus-sized instances a map's construction
// cost is visible next to the search itself.
type packedLayout struct {
	posShift []uint8
	posBits  []uint8
	valShift uint8
	valBits  uint8
	boundBit uint8
	vals     []memory.Value // value index -> value; sorted ascending
}

// valIndex returns the index of d in the sorted value table.
func (l *packedLayout) valIndex(d memory.Value) (uint64, bool) {
	lo, hi := 0, len(l.vals)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.vals[mid] < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(l.vals) && l.vals[lo] == d {
		return uint64(lo), true
	}
	return 0, false
}

// build (re)computes the layout for inst in place, reusing l's slices
// (the pooled searchScratch keeps one). It reports false when the
// instance overflows packedLayoutBits (the caller then keeps the
// string-key memo); l is unusable in that case.
func (l *packedLayout) build(inst *instance) bool {
	if cap(l.posShift) >= len(inst.hist) {
		l.posShift = l.posShift[:len(inst.hist)]
		l.posBits = l.posBits[:len(inst.hist)]
	} else {
		l.posShift = make([]uint8, len(inst.hist))
		l.posBits = make([]uint8, len(inst.hist))
	}
	l.vals = l.vals[:0]
	if inst.init != nil {
		l.vals = append(l.vals, *inst.init)
	}
	for _, h := range inst.hist {
		for _, o := range h {
			if d, ok := o.Reads(); ok {
				l.vals = append(l.vals, d)
			}
			if d, ok := o.Writes(); ok {
				l.vals = append(l.vals, d)
			}
		}
	}
	slices.Sort(l.vals)
	l.vals = slices.Compact(l.vals)
	shift := 0
	for i, h := range inst.hist {
		nb := bits.Len(uint(len(h)))
		if shift+nb > packedLayoutBits {
			return false
		}
		l.posShift[i] = uint8(shift)
		l.posBits[i] = uint8(nb)
		shift += nb
	}
	vb := 0
	if len(l.vals) > 1 {
		vb = bits.Len(uint(len(l.vals) - 1))
	}
	if shift+vb+1 > packedLayoutBits {
		return false
	}
	l.valShift = uint8(shift)
	l.valBits = uint8(vb)
	l.boundBit = uint8(shift + vb)
	return true
}

// bitsUsed returns the total number of key bits the layout occupies
// (positions + value index + bound flag). The concurrent memo set needs
// one spare bit above the key for its claim flag, so the parallel
// search requires bitsUsed() < packedLayoutBits.
func (l *packedLayout) bitsUsed() int { return int(l.boundBit) + 1 }

// pack encodes a search state into its packed key.
func (l *packedLayout) pack(pos []int, cur memory.Value, bound bool) uint64 {
	k := uint64(0)
	for i, p := range pos {
		k |= uint64(p) << l.posShift[i]
	}
	if bound {
		idx, _ := l.valIndex(cur)
		k |= 1<<l.boundBit | idx<<l.valShift
	}
	return k
}

// appendStringKey decodes a packed key into the exact byte form
// searcher.key produces for the same state, appending to buf. Keeping
// the two forms byte-identical is what makes checkpoints written by a
// packed search readable by a string-memo search and vice versa.
func (l *packedLayout) appendStringKey(buf []byte, k uint64) []byte {
	for i := range l.posBits {
		p := (k >> l.posShift[i]) & (1<<l.posBits[i] - 1)
		buf = binary.AppendUvarint(buf, p)
	}
	if k&(1<<l.boundBit) != 0 {
		idx := (k >> l.valShift) & (1<<l.valBits - 1)
		buf = append(buf, 1)
		buf = binary.AppendVarint(buf, int64(l.vals[idx]))
	} else {
		buf = append(buf, 0)
	}
	return buf
}

// parseStringKey re-packs a varint string memo key (resume seeding). A
// key that does not parse against this layout — corrupted, or shaped
// for a different instance — reports ok=false; dropping it only loses
// pruning, never soundness.
func (l *packedLayout) parseStringKey(key string) (uint64, bool) {
	b := []byte(key)
	k := uint64(0)
	for i := range l.posBits {
		p, n := binary.Uvarint(b)
		if n <= 0 || p >= 1<<l.posBits[i] {
			return 0, false
		}
		k |= p << l.posShift[i]
		b = b[n:]
	}
	if len(b) == 0 {
		return 0, false
	}
	switch b[0] {
	case 0:
		b = b[1:]
	case 1:
		v, n := binary.Varint(b[1:])
		if n <= 0 {
			return 0, false
		}
		idx, ok := l.valIndex(memory.Value(v))
		if !ok {
			return 0, false
		}
		b = b[1+n:]
		k |= 1<<l.boundBit | idx<<l.valShift
	default:
		return 0, false
	}
	if len(b) != 0 {
		return 0, false
	}
	return k, true
}

// packedSetMinSlots is the initial (and pooled-reset) table size.
const packedSetMinSlots = 1024

// packedSetMinBatchSlots is the smallest table resetSized will produce:
// the floor for litmus-sized instances.
const packedSetMinBatchSlots = 64

// packedSetMaxRetainSlots bounds the table a pooled reset keeps: larger
// tables are dropped so a small solve after a huge one does not pay a
// multi-megabyte memset.
const packedSetMaxRetainSlots = 1 << 16

// packedSet is an open-addressing (linear probing) hash set of packed
// state keys. Slots store key+1 so the zero slot means empty — legal
// because layouts are capped at 63 bits. Lookups and inserts allocate
// nothing; growth doubles the table at 3/4 load.
type packedSet struct {
	slots []uint64
	n     int
}

// reset prepares the set for a fresh solve, reusing the table when it is
// small enough to be worth clearing.
func (ps *packedSet) reset() { ps.resetSized(packedSetMinSlots) }

// resetSized is reset with an explicit target table size, rounded up to
// a power of two and clamped to [packedSetMinBatchSlots,
// packedSetMinSlots]. The search passes a size scaled to the instance
// so a burst of tiny solves does not pay a 1024-slot memset each. All
// pooled-reset bookkeeping lives here: the fill count is zeroed on every
// path — including the drop-and-reallocate path — so a retained table
// can never carry a stale count into the next solve.
func (ps *packedSet) resetSized(want int) {
	if want < packedSetMinBatchSlots {
		want = packedSetMinBatchSlots
	}
	if want > packedSetMinSlots {
		want = packedSetMinSlots
	}
	want = 1 << bits.Len(uint(want-1)) // next power of two
	ps.n = 0
	switch {
	case ps.slots == nil || len(ps.slots) > packedSetMaxRetainSlots:
		// Fresh table, or the previous solve grew past the retain bound:
		// reallocate at the requested size rather than memset megabytes.
		ps.slots = make([]uint64, want)
	case len(ps.slots) < want:
		ps.slots = make([]uint64, want)
	default:
		clear(ps.slots)
	}
}

// mixKey is splitmix64's finalizer: packed keys are near-sequential in
// their low bits, so they need a full-avalanche scramble before masking.
func mixKey(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

func (ps *packedSet) contains(k uint64) bool {
	mask := uint64(len(ps.slots) - 1)
	for i := mixKey(k) & mask; ; i = (i + 1) & mask {
		switch ps.slots[i] {
		case 0:
			return false
		case k + 1:
			return true
		}
	}
}

func (ps *packedSet) add(k uint64) {
	if 4*(ps.n+1) > 3*len(ps.slots) {
		ps.grow()
	}
	mask := uint64(len(ps.slots) - 1)
	for i := mixKey(k) & mask; ; i = (i + 1) & mask {
		switch ps.slots[i] {
		case 0:
			ps.slots[i] = k + 1
			ps.n++
			return
		case k + 1:
			return
		}
	}
}

func (ps *packedSet) grow() {
	old := ps.slots
	ps.slots = make([]uint64, 2*len(old))
	mask := uint64(len(ps.slots) - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		for i := mixKey(s-1) & mask; ; i = (i + 1) & mask {
			if ps.slots[i] == 0 {
				ps.slots[i] = s
				break
			}
		}
	}
}

// size returns the number of keys in the set.
func (ps *packedSet) size() int { return ps.n }

// each calls f for every key in the set, in table order.
func (ps *packedSet) each(f func(uint64)) {
	for _, s := range ps.slots {
		if s != 0 {
			f(s - 1)
		}
	}
}
