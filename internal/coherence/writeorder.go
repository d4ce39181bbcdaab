package coherence

import (
	"context"
	"fmt"
	"sort"
	"time"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// SolveWithWriteOrder decides VMC for address addr when the memory system
// has been augmented to supply the order in which write operations were
// executed (Section 5.2 of the paper). writeOrder must list every
// operation of exec at addr that writes (simple writes and
// read-modify-writes), exactly once, in the order the memory system
// executed them.
//
// The algorithm follows §5.2: the write order is the skeleton of the
// schedule, and each read is inserted after its program-order predecessor,
// scanning forward no further than the next write of its own history. A
// read is placed after the first write of its value in that window.
// Earliest placement is complete: with the region values fixed by the
// write order, reads of different histories are independent, and moving a
// read earlier within its window only enlarges the windows of its
// program-order successors. When no initial value is declared, the value
// of the pre-write region is a single unknown; the driver tries each
// candidate binding (at most one distinct value per history), keeping the
// whole procedure polynomial: O(k·n²) worst case, O(n²) with a declared
// initial value — versus NP-Completeness without the write order.
//
// An error is returned when writeOrder is not a valid write order for the
// instance (wrong operations, duplicates, or program order violated); an
// incoherent result (Coherent == false) is returned when the order is
// valid but no coherent schedule extends it.
func SolveWithWriteOrder(ctx context.Context, exec *memory.Execution, addr memory.Addr, writeOrder []memory.Ref, opts *Options) (r *Result, err error) {
	if err := exec.Validate(); err != nil {
		return nil, err
	}
	if e := solver.Interrupted(ctx); e != nil {
		return nil, withAddr(e, addr)
	}
	sp, ctx := beginSolve(ctx, "write-order", addr)
	defer func() { endSolve(ctx, sp, r, err) }()
	start := time.Now()
	inst := project(exec, addr)
	order, err := inst.toProjectionRefs(writeOrder, addr)
	if err != nil {
		return nil, err
	}
	r, err = writeOrderInstance(inst, order)
	if r != nil {
		r.Stats.Duration = time.Since(start)
	}
	return r, err
}

// toProjectionRefs translates a write order in original execution refs
// to projection refs. It checks each entry as the caller wrote it, so a
// fault names the caller's ref: an entry must be a writing operation of
// addr, listed once, after the listed entries of its history that
// precede it in program order. Of several faults it reports the first
// entry's; whether every writer is listed is left to validateWriteOrder.
func (in *instance) toProjectionRefs(refs []memory.Ref, addr memory.Addr) ([]memory.Ref, error) {
	out := make([]memory.Ref, len(refs))
	off := make([]int, len(in.hist)+1) // history -> its first slot in listed
	for p, h := range in.hist {
		off[p+1] = off[p] + len(h)
	}
	listed := make([]bool, off[len(in.hist)])
	next := make([]int, len(in.hist)) // history -> 1 + its last listed op
	for i, r := range refs {
		pr, ok := in.projRef(r)
		if !ok {
			return nil, fmt.Errorf("coherence: write order entry %s is not an operation of address %d", r, addr)
		}
		p, j := pr.Proc, pr.Index
		switch _, writes := in.hist[p][j].Writes(); {
		case !writes:
			return nil, fmt.Errorf("coherence: write order entry %s (%s) does not write", r, in.hist[p][j])
		case listed[off[p]+j]:
			return nil, fmt.Errorf("coherence: write order lists %s twice", r)
		case j < next[p]:
			return nil, fmt.Errorf("coherence: write order violates program order at %s", r)
		}
		listed[off[p]+j], next[p] = true, j+1
		out[i] = pr
	}
	return out, nil
}

// writerBlocks numbers the writing operations of an instance history by
// history, each in program order: block woff[p]+j is the j-th writer of
// history p. Program order between the writers of one history is then
// the chain b → b+1 of consecutive blocks, which no table has to store.
type writerBlocks struct {
	woff  []int32 // history -> its first block; woff[len(hist)] is the writer count
	wOp   []int32 // block -> op index in its history
	wProc []int32 // block -> history
}

// newWriterBlocks numbers the nw writers of inst.
func newWriterBlocks(inst *instance, nw int) writerBlocks {
	wb := writerBlocks{
		woff:  make([]int32, len(inst.hist)+1),
		wOp:   make([]int32, nw),
		wProc: make([]int32, nw),
	}
	b := 0
	for h, hist := range inst.hist {
		wb.woff[h] = int32(b)
		for i, o := range hist {
			if _, ok := o.Writes(); ok {
				wb.wOp[b], wb.wProc[b] = int32(i), int32(h)
				b++
			}
		}
	}
	wb.woff[len(inst.hist)] = int32(b)
	return wb
}

// size is the number of writers.
func (wb *writerBlocks) size() int { return len(wb.wOp) }

// ref is the projection ref of block b.
func (wb *writerBlocks) ref(b int32) memory.Ref {
	return memory.Ref{Proc: int(wb.wProc[b]), Index: int(wb.wOp[b])}
}

// blockOf is the block of the writer at op i of history p.
func (wb *writerBlocks) blockOf(p, i int) int32 {
	lo, hi := wb.woff[p], wb.woff[p+1]
	return lo + int32(sort.Search(int(hi-lo), func(j int) bool { return wb.wOp[lo+int32(j)] >= int32(i) }))
}

// blockRegions checks that order lists no block twice and the blocks of
// each history in program order, and returns its region table: region[b]
// is 1 + the position of block b in order, the region its write opens.
func (wb *writerBlocks) blockRegions(order []int32) ([]int32, error) {
	region := make([]int32, wb.size())
	last := make([]int32, len(wb.woff)-1) // history -> its last listed block
	for p := range last {
		last[p] = -1
	}
	for k, b := range order {
		if b < 0 || int(b) >= len(region) {
			return nil, fmt.Errorf("coherence: write order block %d out of range", b)
		}
		if region[b] != 0 {
			return nil, fmt.Errorf("coherence: write order lists %s twice", wb.ref(b))
		}
		region[b] = int32(k + 1)
		p := wb.wProc[b]
		if b <= last[p] {
			return nil, fmt.Errorf("coherence: write order violates program order at %s", wb.ref(b))
		}
		last[p] = b
	}
	return region, nil
}

// checkOrder is blockRegions for a whole write order: the order must
// also list every writer.
func (wb *writerBlocks) checkOrder(order []int32) ([]int32, error) {
	region, err := wb.blockRegions(order)
	if err == nil && len(order) != wb.size() {
		err = fmt.Errorf("coherence: write order lists %d operations, instance has %d writing operations",
			len(order), wb.size())
	}
	return region, err
}

// validateWriteOrder checks that order, in projection refs, lists every
// writing op of the instance exactly once, respecting program order. It
// returns the order as blocks of wb and its region table. Of several
// faults it reports the first entry's.
func (in *instance) validateWriteOrder(wb *writerBlocks, order []memory.Ref) (blocks, region []int32, err error) {
	blocks = make([]int32, 0, len(order))
	for _, r := range order {
		if r.Proc < 0 || r.Proc >= len(in.hist) || r.Index < 0 || r.Index >= len(in.hist[r.Proc]) {
			err = fmt.Errorf("coherence: write order reference %s out of range", r)
		} else if _, ok := in.hist[r.Proc][r.Index].Writes(); !ok {
			err = fmt.Errorf("coherence: write order entry %s (%s) does not write", r, in.hist[r.Proc][r.Index])
		}
		if err != nil {
			if _, earlier := wb.blockRegions(blocks); earlier != nil {
				err = earlier
			}
			return nil, nil, err
		}
		blocks = append(blocks, wb.blockOf(r.Proc, r.Index))
	}
	if region, err = wb.checkOrder(blocks); err != nil {
		return nil, nil, err
	}
	return blocks, region, nil
}

// writeOrderInstance runs the §5.2 algorithm over a projected instance.
// order holds projection refs of the writing operations.
func writeOrderInstance(inst *instance, order []memory.Ref) (*Result, error) {
	wb := newWriterBlocks(inst, countWriters(inst))
	blocks, region, err := inst.validateWriteOrder(&wb, order)
	if err != nil {
		return nil, err
	}
	return wb.place(inst, blocks, region), nil
}

// place runs the §5.2 algorithm over a validated block order with its
// region table. The certificate is in original refs.
func (wb *writerBlocks) place(inst *instance, order, region []int32) (r *Result) {
	defer func() { stampOps(r, inst) }()

	// The pre-write region's value may be forced by a declared initial
	// value or by a read-modify-write standing first in the write order.
	// Otherwise it is unknown and each candidate is tried: the values of
	// the reads that may land in the pre-write region (those preceding
	// their history's first write), in first-seen order so the
	// certificate is deterministic. With no candidate the region matches
	// no read (nil).
	var candidates []*memory.Value
	switch {
	case inst.init != nil:
		candidates = []*memory.Value{inst.init}
	case len(order) > 0 && inst.hist[wb.wProc[order[0]]][wb.wOp[order[0]]].Kind == memory.ReadModifyWrite:
		candidates = []*memory.Value{&inst.hist[wb.wProc[order[0]]][wb.wOp[order[0]]].Data}
	default:
		isCandidate := make(map[memory.Value]bool)
		for _, h := range inst.hist {
			for i, o := range h {
				if _, isWrite := o.Writes(); isWrite {
					break
				}
				if !isCandidate[o.Data] {
					isCandidate[o.Data] = true
					candidates = append(candidates, &h[i].Data)
				}
			}
		}
		if len(candidates) == 0 {
			candidates = []*memory.Value{nil}
		}
	}
	for _, init := range candidates {
		if sched, ok := wb.placeReads(inst, order, region, init); ok {
			return &Result{Coherent: true, Decided: true, Schedule: sched, Algorithm: "write-order"}
		}
	}
	return &Result{Coherent: false, Decided: true, Algorithm: "write-order"}
}

// placeReads attempts to extend the write order into a full coherent
// schedule with the pre-write region bound to init (nil means the region
// matches no read). region is the order's region table. It returns the
// schedule in original refs.
func (wb *writerBlocks) placeReads(inst *instance, order, region []int32, init *memory.Value) (memory.Schedule, bool) {
	nw := int32(len(order))
	// value[b] is the memory value in force in region b: region 0
	// precedes all writes; region b (1-based) follows the b-th write.
	// Only region 0 can be unbound.
	value := make([]memory.Value, nw+1)
	bound0 := init != nil
	if bound0 {
		value[0] = *init
	}
	for k, b := range order {
		o := inst.hist[wb.wProc[b]][wb.wOp[b]]
		// A read-modify-write embedded in the write order must read the
		// value in force before it.
		if dr, ok := o.Reads(); ok {
			if (k == 0 && !bound0) || value[k] != dr {
				return nil, false
			}
		}
		value[k+1], _ = o.Writes()
	}

	// Final value: the last write must store it; with no writes, a bound
	// pre-write value must agree (mirroring memory.CheckCoherent).
	if inst.final != nil {
		if nw > 0 && value[nw] != *inst.final {
			return nil, false
		}
		if nw == 0 && bound0 && value[0] != *inst.final {
			return nil, false
		}
	}

	// Insert reads: at lists the region of every read, history by
	// history in program order, and size[b] counts the reads of region b.
	// A read is placed in the first region of its value from its
	// history's current region up to, not including, the region of its
	// history's next writer.
	at := make([]int32, 0, inst.nops-int(nw))
	size := make([]int32, nw+1)
	for h, hist := range inst.hist {
		next, end := wb.woff[h], wb.woff[h+1] // the history's next writer block
		cur := int32(0)
		for _, o := range hist {
			if _, ok := o.Writes(); ok {
				cur = region[next]
				next++
				continue
			}
			limit := nw + 1
			if next < end {
				limit = region[next]
			}
			b := cur
			for b < limit && ((b == 0 && !bound0) || value[b] != o.Data) {
				b++
			}
			if b == limit {
				return nil, false
			}
			at = append(at, b)
			size[b]++
			cur = b
		}
	}

	// Emit the schedule: region 0 reads, then each write followed by its
	// region's reads. size[b] becomes the slot of region b's next read;
	// filling the slots in (history, program order) keeps every
	// history's reads in program order within a region.
	sched := make(memory.Schedule, inst.nops)
	pos := int32(0)
	for b := int32(0); b <= nw; b++ {
		if b > 0 {
			w := order[b-1]
			sched[pos] = inst.origRef(int(wb.wProc[w]), int(wb.wOp[w]))
			pos++
		}
		size[b], pos = pos, pos+size[b]
	}
	k := 0
	for h, hist := range inst.hist {
		for i, o := range hist {
			if _, ok := o.Writes(); ok {
				continue
			}
			b := at[k]
			k++
			sched[size[b]] = inst.origRef(h, i)
			size[b]++
		}
	}
	return sched, true
}

// CheckRMWWriteOrder decides VMC in O(n) for instances consisting solely
// of read-modify-write operations when the write order is supplied: the
// write order is then a total order of all operations, and coherence
// holds iff the read component of each operation returns the value stored
// by the write component of its predecessor (§5.2, final remark).
func CheckRMWWriteOrder(ctx context.Context, exec *memory.Execution, addr memory.Addr, writeOrder []memory.Ref) (res *Result, err error) {
	if err := exec.Validate(); err != nil {
		return nil, err
	}
	if e := solver.Interrupted(ctx); e != nil {
		return nil, withAddr(e, addr)
	}
	sp, ctx := beginSolve(ctx, "rmw-write-order", addr)
	defer func() { endSolve(ctx, sp, res, err) }()
	inst := project(exec, addr)
	if !inst.allRMW() {
		return nil, fmt.Errorf("coherence: address %d has non-RMW operations; use SolveWithWriteOrder", addr)
	}
	if len(writeOrder) != inst.nops {
		return nil, fmt.Errorf("coherence: write order lists %d operations, instance has %d",
			len(writeOrder), inst.nops)
	}
	order, err := inst.toProjectionRefs(writeOrder, addr)
	if err != nil {
		return nil, err
	}
	wb := newWriterBlocks(inst, countWriters(inst))
	if _, _, err := inst.validateWriteOrder(&wb, order); err != nil {
		return nil, err
	}
	incoherent := &Result{Coherent: false, Decided: true, Algorithm: "rmw-write-order"}
	stampOps(incoherent, inst)

	var cur memory.Value
	bound := false
	if inst.init != nil {
		cur, bound = *inst.init, true
	}
	for _, r := range order {
		o := inst.hist[r.Proc][r.Index]
		if bound && o.Data != cur {
			return incoherent, nil
		}
		cur, bound = o.Store, true
	}
	if inst.final != nil && bound && cur != *inst.final {
		return incoherent, nil
	}
	res = &Result{
		Coherent:  true,
		Decided:   true,
		Schedule:  inst.translate(order),
		Algorithm: "rmw-write-order",
	}
	stampOps(res, inst)
	return res, nil
}
