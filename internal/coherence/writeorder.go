package coherence

import (
	"context"
	"fmt"
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

// toProjectionRefs translates original execution refs to projection refs.
func (in *instance) toProjectionRefs(refs []memory.Ref, addr memory.Addr) ([]memory.Ref, error) {
	out := make([]memory.Ref, len(refs))
	for i, r := range refs {
		pr, ok := in.projRef(r)
		if !ok {
			return nil, fmt.Errorf("coherence: write order entry %s is not an operation of address %d", r, addr)
		}
		out[i] = pr
	}
	return out, nil
}

// validateWriteOrder checks that order lists every writing op of the
// instance exactly once, respecting program order. It returns the region
// table of the order: regionOf[p][i] is b+1 for the writer at order[b],
// and 0 for every op that does not write.
func (in *instance) validateWriteOrder(order []memory.Ref) (regionOf [][]int32, err error) {
	writers := 0
	for _, h := range in.hist {
		for _, o := range h {
			if _, ok := o.Writes(); ok {
				writers++
			}
		}
	}
	regionOf = perHistory[int32](in.hist)
	last := make([]int, len(in.hist)) // history -> last listed index
	for p := range last {
		last[p] = -1
	}
	for b, r := range order {
		if r.Proc < 0 || r.Proc >= len(in.hist) || r.Index < 0 || r.Index >= len(in.hist[r.Proc]) {
			return nil, fmt.Errorf("coherence: write order reference %s out of range", r)
		}
		o := in.hist[r.Proc][r.Index]
		if _, ok := o.Writes(); !ok {
			return nil, fmt.Errorf("coherence: write order entry %s (%s) does not write", r, o)
		}
		if regionOf[r.Proc][r.Index] != 0 {
			return nil, fmt.Errorf("coherence: write order lists %s twice", r)
		}
		regionOf[r.Proc][r.Index] = int32(b + 1)
		if r.Index <= last[r.Proc] {
			return nil, fmt.Errorf("coherence: write order violates program order at %s", r)
		}
		last[r.Proc] = r.Index
	}
	if len(order) != writers {
		return nil, fmt.Errorf("coherence: write order lists %d operations, instance has %d writing operations",
			len(order), writers)
	}
	return regionOf, nil
}

// writeOrderInstance runs the §5.2 algorithm over a projected instance.
// order holds projection refs of the writing operations.
func writeOrderInstance(inst *instance, order []memory.Ref) (r *Result, err error) {
	defer func() { stampOps(r, inst) }()
	regionOf, err := inst.validateWriteOrder(order)
	if err != nil {
		return nil, err
	}

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
	case len(order) > 0 && inst.hist[order[0].Proc][order[0].Index].Kind == memory.ReadModifyWrite:
		candidates = []*memory.Value{&inst.hist[order[0].Proc][order[0].Index].Data}
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
		if sched, ok := placeReads(inst, order, regionOf, init); ok {
			return &Result{Coherent: true, Decided: true, Schedule: inst.translate(sched), Algorithm: "write-order"}, nil
		}
	}
	return &Result{Coherent: false, Decided: true, Algorithm: "write-order"}, nil
}

// placeReads attempts to extend the write order into a full coherent
// schedule with the pre-write region bound to init (nil means the region
// matches no read). regionOf is the order's region table from
// validateWriteOrder. It returns the schedule in projection refs.
func placeReads(inst *instance, order []memory.Ref, regionOf [][]int32, init *memory.Value) ([]memory.Ref, bool) {
	nw := len(order)
	// value[b] is the memory value in force in region b: region 0
	// precedes all writes; region b (1-based) follows the b-th write.
	value := make([]memory.Value, nw+1)
	valueBound := make([]bool, nw+1)
	if init != nil {
		value[0], valueBound[0] = *init, true
	}
	for b, r := range order {
		o := inst.hist[r.Proc][r.Index]
		// A read-modify-write embedded in the write order must read the
		// value in force before it.
		if dr, ok := o.Reads(); ok {
			if !valueBound[b] || value[b] != dr {
				return nil, false
			}
		}
		dw, _ := o.Writes()
		value[b+1], valueBound[b+1] = dw, true
	}

	// Final value: the last write must store it; with no writes, a bound
	// pre-write value must agree (mirroring memory.CheckCoherent).
	if inst.final != nil {
		if nw > 0 && value[nw] != *inst.final {
			return nil, false
		}
		if nw == 0 && valueBound[0] && value[0] != *inst.final {
			return nil, false
		}
	}

	// Insert reads: regionAt[h][i] is the region read (h, i) lands in,
	// and size[b] counts the reads of region b.
	regionAt := perHistory[int32](inst.hist)
	size := make([]int, nw+1)
	for h, hist := range inst.hist {
		regions := regionOf[h]
		// A read at i must be placed in a region strictly below limit, the
		// region of the first writer of its history after i (nw+1 if
		// none); nextW is that writer's index.
		curRegion, limit, nextW := 0, 0, -1
		for i, o := range hist {
			if rg := regions[i]; rg > 0 {
				curRegion = int(rg)
				continue
			}
			if nextW <= i {
				for nextW = i + 1; nextW < len(hist) && regions[nextW] == 0; nextW++ {
				}
				limit = nw + 1
				if nextW < len(hist) {
					limit = int(regions[nextW])
				}
			}
			d := o.Data
			placed := false
			for b := curRegion; b < limit && b <= nw; b++ {
				if valueBound[b] && value[b] == d {
					regionAt[h][i] = int32(b)
					size[b]++
					curRegion = b
					placed = true
					break
				}
			}
			if !placed {
				return nil, false
			}
		}
	}

	// Emit the schedule: region 0 reads, then each write followed by its
	// region's reads. next[b] is the slot of region b's next read; filling
	// the slots in (history, program order) keeps every history's reads
	// in program order within a region.
	sched := make([]memory.Ref, inst.nops)
	next, pos := size, 0
	for b := 0; b <= nw; b++ {
		if b > 0 {
			sched[pos] = order[b-1]
			pos++
		}
		next[b], pos = pos, pos+size[b]
	}
	for h, hist := range inst.hist {
		for i := range hist {
			if regionOf[h][i] == 0 {
				b := regionAt[h][i]
				sched[next[b]] = memory.Ref{Proc: h, Index: i}
				next[b]++
			}
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
	if _, err := inst.validateWriteOrder(order); err != nil {
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
