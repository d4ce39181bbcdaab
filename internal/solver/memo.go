package solver

import "math/bits"

// The exact searches are bounded by the number of distinct states they
// memoize — O(n^k · |D|^c) for k histories over c addresses — so the
// failed-state memo is their hot path. A state (positions, one value
// slot per address, and for the store-buffer machines the committed
// store counts) packs into a fixed-width key of one or more uint64
// words, laid out once per instance by a Layout, and MemoSet stores
// those keys in one open-addressing table with no per-state allocation.

// wordBits caps the bits a Layout puts in one key word, so a stored
// first word plus one (MemoSet's occupied-slot mark) never wraps to
// zero.
const wordBits = 63

// Layout places a search state's fields in a fixed-width key of Words()
// uint64 words. Fields are packed first-fit in the order they are added,
// and field f is the f-th added; a field never straddles two words.
// Reset starts a layout, reusing its slices.
type Layout struct {
	// Shift[f] is field f's first bit in its word; a hot loop that
	// packs one-word keys reads it directly.
	Shift []uint8
	word  []uint32
	width []uint8
	words int
	used  int // bits taken in the last word
}

// Reset empties the layout to one word, keeping its slices.
func (l *Layout) Reset() {
	l.word, l.Shift, l.width = l.word[:0], l.Shift[:0], l.width[:0]
	l.words, l.used = 1, 0
}

// Add appends a field of width bits (at most 63).
func (l *Layout) Add(width int) {
	if l.used+width > wordBits {
		l.words++
		l.used = 0
	}
	l.word = append(l.word, uint32(l.words-1))
	l.Shift = append(l.Shift, uint8(l.used))
	l.width = append(l.width, uint8(width))
	l.used += width
}

// Words returns the key width in words.
func (l *Layout) Words() int { return l.words }

// Width returns field f's width in bits.
func (l *Layout) Width(f int) int { return int(l.width[f]) }

// Put ors v into field f of key; v must fit the field and the field
// must be zero.
func (l *Layout) Put(key []uint64, f int, v uint64) { key[l.word[f]] |= v << l.Shift[f] }

// Get returns field f of key.
func (l *Layout) Get(key []uint64, f int) uint64 {
	return key[l.word[f]] >> l.Shift[f] & (1<<l.width[f] - 1)
}

// HashKey mixes every word of a key (splitmix64's finalizer, chained):
// packed keys are near-sequential in their low bits, so they need a
// full-avalanche scramble before masking. A one-word key hashes to the
// plain finalizer of its word.
func HashKey(key []uint64) uint64 {
	h := mix64(key[0])
	if len(key) == 1 {
		return h
	}
	for _, k := range key[1:] {
		h = mix64(h ^ k)
	}
	return h
}

func mix64(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

const (
	// memoMinSlots is the largest table Reset hands out (and the size a
	// solve with no size hint starts from).
	memoMinSlots = 1024
	// memoMinBatchSlots is the smallest table Reset hands out: the floor
	// for litmus-sized instances.
	memoMinBatchSlots = 64
	// memoMaxRetainWords bounds the table a pooled Reset keeps: a larger
	// one is dropped, so a small solve after a huge one does not pay a
	// multi-megabyte clear.
	memoMaxRetainWords = 1 << 16
)

// MemoSet is an open-addressing (linear probing) set of fixed-width
// keys of Words() words, the failed-state memo of every exact search.
// A slot is w consecutive words; its first word holds key[0]+1, so zero
// marks an empty slot (Layout keeps key words below 2^63). Lookups and
// inserts allocate nothing; the table doubles at 3/4 load. Call Reset
// before first use.
type MemoSet struct {
	w     int
	slots []uint64
	mask  uint64 // slot count - 1
	n     int
}

// Reset prepares the set for a fresh solve over keys of words words,
// sized for about want states: want is rounded up to a power of two and
// clamped to [64, 1024] slots, so a burst of tiny solves does not pay a
// 1024-slot clear each. A retained table is cleared and reused when it
// is at least that large, has the same key width and is within the
// retain bound; otherwise it is reallocated. The fill count is zeroed on
// every path.
func (m *MemoSet) Reset(words, want int) {
	want = 1 << bits.Len(uint(min(max(want, memoMinBatchSlots), memoMinSlots)-1))
	m.n = 0
	switch {
	case m.slots == nil || m.w != words || len(m.slots) > memoMaxRetainWords || int(m.mask)+1 < want:
		m.w = words
		m.slots = make([]uint64, want*words)
		m.mask = uint64(want - 1)
	default:
		clear(m.slots)
	}
}

// Len returns the number of keys in the set.
func (m *MemoSet) Len() int { return m.n }

// find probes for key and returns its slot's first word index and
// whether the slot holds key (else it is the empty slot ending the
// probe).
func (m *MemoSet) find(key []uint64) (int, bool) {
	w := m.w
	k0 := key[0] + 1
	for i := HashKey(key) & m.mask; ; i = (i + 1) & m.mask {
		b := int(i) * w
		switch m.slots[b] {
		case 0:
			return b, false
		case k0:
			if w == 1 || equalWords(m.slots[b+1:b+w], key[1:]) {
				return b, true
			}
		}
	}
}

func equalWords(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Contains reports whether key is in the set.
func (m *MemoSet) Contains(key []uint64) bool {
	_, ok := m.find(key)
	return ok
}

// Add inserts key and reports whether it was absent.
func (m *MemoSet) Add(key []uint64) bool {
	if 4*(m.n+1) > 3*(int(m.mask)+1) {
		m.grow()
	}
	b, ok := m.find(key)
	if ok {
		return false
	}
	m.slots[b] = key[0] + 1
	copy(m.slots[b+1:b+m.w], key[1:])
	m.n++
	return true
}

func (m *MemoSet) grow() {
	old, w := m.slots, m.w
	m.slots = make([]uint64, 2*len(old))
	m.mask = 2*m.mask + 1
	key := make([]uint64, w)
	for b := 0; b < len(old); b += w {
		if old[b] == 0 {
			continue
		}
		key[0] = old[b] - 1
		copy(key[1:], old[b+1:b+w])
		nb, _ := m.find(key)
		copy(m.slots[nb:nb+w], old[b:b+w])
	}
}

// Each calls f with every key in the set, in table order. The slice is
// reused between calls.
func (m *MemoSet) Each(f func(key []uint64)) {
	key := make([]uint64, m.w)
	for b := 0; b < len(m.slots); b += m.w {
		if m.slots[b] != 0 {
			key[0] = m.slots[b] - 1
			copy(key[1:], m.slots[b+1:b+m.w])
			f(key)
		}
	}
}
