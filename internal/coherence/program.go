package coherence

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// The exact-search kernel runs on a program: an instance compiled once
// per solve into dense tables. Every address the search tracks gets a
// value slot. A slot's values, in ascending order, get the ids 1..n, and
// id 0 means the slot is still unbound, so the kernel compares ids
// instead of values and a state — (position per history, value id per
// slot) — packs into a fixed-width memo key without a lookup. VMC is the
// one-slot case; VSC (SearchSC) has one slot per address of the
// execution.

// kop is one operation as the kernel sees it: its address slot and the
// ids of the values it reads and writes, 0 when it does not. So a read
// has only rd, a write only wr, an RMW both, and a synchronization
// operation neither (its slot is 0 and never touched).
type kop struct {
	slot   int32
	rd, wr uint32
}

// neverValue is the final-value id of a slot whose declared final value
// no operation reads or writes: no bound slot can match it.
const neverValue = ^uint32(0)

// declared is an optional initial or final value of one slot.
type declared struct {
	v  memory.Value
	ok bool
}

// naming labels one entry point's spans and results.
type naming struct {
	seq, par string // algorithm names, sequential and ∥n
	yes, no  string // span outcomes
	addr     memory.Addr
	perAddr  bool // spans are per-address (BeginAddr)
}

// vmcNaming labels the exact rung.
func vmcNaming(addr memory.Addr) naming {
	return naming{seq: "general-search", par: "parallel-search", yes: "coherent", no: "incoherent", addr: addr, perAddr: true}
}

// program is an instance compiled for the kernel. All slices are reused
// across compiles (a pooled searchScratch keeps one).
type program struct {
	inst  *instance // histories and the back-map for certificates
	hist  [][]kop   // one row per history, carved from ops
	ops   []kop
	nops  int
	init  []uint32 // per slot: declared initial value id, 0 when none
	final []uint32 // per slot: declared final value id, 0 when none
	// vals[valOff[s]:valOff[s+1]] are slot s's values in ascending
	// order; id i is vals[valOff[s]+i-1].
	vals   []memory.Value
	valOff []int
	// pred, when non-nil, holds each writing op's predecessor in its
	// address's write order (Proc < 0: none); a write is enabled only
	// after its predecessor is scheduled.
	pred   [][]memory.Ref
	layout solver.Layout // one field per history position, then one per slot
	name   naming

	fill    []int // per-slot fill cursors while bucketing values
	predBuf []memory.Ref
}

// compileInstance compiles the single-address instance: one slot.
func (pg *program) compileInstance(inst *instance) {
	init, final := declared{}, declared{}
	if inst.init != nil {
		init = declared{*inst.init, true}
	}
	if inst.final != nil {
		final = declared{*inst.final, true}
	}
	pg.compile(inst, []memory.Addr{inst.addr}, []declared{init}, []declared{final}, nil)
	pg.name = vmcNaming(inst.addr)
}

// compile fills pg from inst's histories over the sorted address list
// addrs (every memory op's address is in it), with init[s] and final[s]
// declared per slot and the write orders, if any.
func (pg *program) compile(inst *instance, addrs []memory.Addr, init, final []declared, orders map[memory.Addr][]memory.Ref) {
	pg.inst, pg.nops = inst, inst.nops
	// Pass 1: carve the op rows and set each op's slot. One slot (VMC)
	// collects its values here; several count theirs per slot, with
	// repeats, in valOff[s+1] for pass 2 to bucket.
	one := len(addrs) == 1
	pg.valOff = growSlice(pg.valOff, len(addrs)+1)
	clear(pg.valOff)
	pg.vals = pg.vals[:0]
	for s, d := range init {
		if d.ok {
			pg.vals = append(pg.vals, d.v)
			pg.valOff[s+1]++
		}
	}
	pg.ops = growSlice(pg.ops, pg.nops)
	pg.hist = growSlice(pg.hist, len(inst.hist))
	flat := pg.ops
	for p, h := range inst.hist {
		row := flat[:len(h):len(h)]
		flat = flat[len(h):]
		for i, o := range h {
			var k kop
			if o.IsMemory() {
				if !one {
					j, _ := slices.BinarySearch(addrs, o.Addr)
					k.slot = int32(j)
				}
				if d, ok := o.Reads(); ok {
					pg.vals = append(pg.vals, d)
					pg.valOff[k.slot+1]++
				}
				if d, ok := o.Writes(); ok {
					pg.vals = append(pg.vals, d)
					pg.valOff[k.slot+1]++
				}
			}
			row[i] = k
		}
		pg.hist[p] = row
	}
	// Pass 2: bucket the values by slot (already done for one slot),
	// then sort and deduplicate each bucket in place, packing the
	// buckets down.
	for s := range addrs {
		pg.valOff[s+1] += pg.valOff[s]
	}
	if !one {
		fill := append(pg.fill[:0], pg.valOff[:len(addrs)]...)
		put := func(s int32, d memory.Value) {
			pg.vals[fill[s]] = d
			fill[s]++
		}
		for s, d := range init {
			if d.ok {
				put(int32(s), d.v)
			}
		}
		for p, h := range inst.hist {
			for i, o := range h {
				if d, ok := o.Reads(); ok {
					put(pg.hist[p][i].slot, d)
				}
				if d, ok := o.Writes(); ok {
					put(pg.hist[p][i].slot, d)
				}
			}
		}
		pg.fill = fill
	}
	n := 0
	for s := range addrs {
		bucket := pg.vals[pg.valOff[s]:pg.valOff[s+1]]
		slices.Sort(bucket)
		pg.valOff[s] = n
		n += copy(pg.vals[n:], slices.Compact(bucket))
	}
	pg.valOff[len(addrs)] = n
	pg.vals = pg.vals[:n]
	// Pass 3: value ids.
	for p, h := range inst.hist {
		for i, o := range h {
			k := &pg.hist[p][i]
			if d, ok := o.Reads(); ok {
				k.rd = pg.valueID(int(k.slot), d)
			}
			if d, ok := o.Writes(); ok {
				k.wr = pg.valueID(int(k.slot), d)
			}
		}
	}

	pg.init = growSlice(pg.init, len(addrs))
	pg.final = growSlice(pg.final, len(addrs))
	for s := range addrs {
		pg.init[s], pg.final[s] = 0, 0
		if init[s].ok {
			pg.init[s] = pg.valueID(s, init[s].v)
		}
		if final[s].ok {
			if pg.final[s] = pg.valueID(s, final[s].v); pg.final[s] == 0 {
				pg.final[s] = neverValue
			}
		}
	}

	pg.pred = nil
	if orders != nil {
		pg.predBuf = growSlice(pg.predBuf, pg.nops)
		pg.pred = growSlice(pg.pred, len(inst.hist))
		flat := pg.predBuf
		for p, h := range inst.hist {
			pg.pred[p], flat = flat[:len(h):len(h)], flat[len(h):]
			for i := range pg.pred[p] {
				pg.pred[p][i] = memory.Ref{Proc: -1}
			}
		}
		for _, a := range addrs {
			order := orders[a]
			for r := 1; r < len(order); r++ {
				pg.pred[order[r].Proc][order[r].Index] = order[r-1]
			}
		}
	}

	pg.layout.Reset()
	for _, h := range inst.hist {
		pg.layout.Add(bits.Len(uint(len(h))))
	}
	for s := range addrs {
		pg.layout.Add(bits.Len(uint(pg.valOff[s+1] - pg.valOff[s])))
	}
}

// valueID returns d's id in slot s, 0 when d is not one of its values.
func (pg *program) valueID(s int, d memory.Value) uint32 {
	if i, ok := slices.BinarySearch(pg.vals[pg.valOff[s]:pg.valOff[s+1]], d); ok {
		return uint32(i + 1)
	}
	return 0
}

// slots returns the number of value slots.
func (pg *program) slots() int { return len(pg.valOff) - 1 }

// appendStringKey renders a packed key in the checkpoint form:
// uvarint(position) per history, then per slot a 0 byte when unbound or
// a 1 byte and varint(value). For the one-slot VMC program this is the
// form every checkpoint since the format's introduction stores, so old
// checkpoints stay resumable.
func (pg *program) appendStringKey(buf []byte, key []uint64) []byte {
	nh := len(pg.hist)
	for h := 0; h < nh; h++ {
		buf = binary.AppendUvarint(buf, pg.layout.Get(key, h))
	}
	for s := 0; s < pg.slots(); s++ {
		id := pg.layout.Get(key, nh+s)
		if id == 0 {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		buf = binary.AppendVarint(buf, int64(pg.vals[pg.valOff[s]+int(id)-1]))
	}
	return buf
}

// parseStringKey packs a checkpoint-form key into key (resume seeding).
// A key that does not parse against this program — corrupted, or shaped
// for a different instance — reports false; dropping it only loses
// pruning, never soundness.
func (pg *program) parseStringKey(s string, key []uint64) bool {
	b := []byte(s)
	clear(key)
	nh := len(pg.hist)
	for h := 0; h < nh; h++ {
		p, n := binary.Uvarint(b)
		if n <= 0 || p >= 1<<pg.layout.Width(h) {
			return false
		}
		pg.layout.Put(key, h, p)
		b = b[n:]
	}
	for s := 0; s < pg.slots(); s++ {
		if len(b) == 0 {
			return false
		}
		switch b[0] {
		case 0:
			b = b[1:]
		case 1:
			v, n := binary.Varint(b[1:])
			if n <= 0 {
				return false
			}
			id := pg.valueID(s, memory.Value(v))
			if id == 0 {
				return false
			}
			pg.layout.Put(key, nh+s, uint64(id))
			b = b[1+n:]
		default:
			return false
		}
	}
	return len(b) == 0
}
