package coherence

import (
	"context"
	"fmt"
	"time"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// This file keeps the fast-path checker and the §5.2 placement that
// fastpath.go and writeorder.go replaced, unchanged but for their names,
// with the perHistory helper only they use, as the oracle
// TestFastPathMatchesReference and FuzzFastPathAgreement check the lean
// tables against: every verdict, REJECT detail and certificate must be
// byte-identical.

// refFastRead is one read operation (including the read half of an RMW)
// tracked by the checker.
type refFastRead struct {
	proc, idx int
	val       memory.Value
	rmw       bool
	// canB0 reports whether the initial region is still a candidate
	// source.
	canB0 bool
	// floating marks a read still tracked with >1 candidates.
	floating bool
	// untracked marks a read whose candidate set blew fastMaxCands; it
	// participates in placement only.
	untracked bool
	// det marks a determined read; src is its source block (-1 = the
	// initial region).
	det   bool
	src   int32
	cands []int32
}

// refFastChecker carries the constraint state for one instance.
type refFastChecker struct {
	inst *instance
	np   int // processes

	nw      int                    // writer blocks
	wref    []memory.Ref           // block -> projection ref
	wProc   []int32                // block -> history index
	wOrd    []int32                // block -> ordinal among its history's writers
	blockAt [][]int32              // per history: op index -> block, -1 for pure reads
	prevW   [][]int32              // per history: nearest writer block strictly before op
	nextW   [][]int32              // per history: nearest writer block strictly after op
	valID   map[memory.Value]int32 // written value -> dense value id
	byVal   [][]int32              // value id -> its writer blocks, ascending

	reads    []refFastRead
	readAt   [][]int32 // per history: op index -> index into reads, -1 for plain writes
	floating int       // tracked floating reads

	// Initial-region bookkeeping: with no declared initial value, the
	// first determined initial-region read binds it.
	b0bound bool
	b0val   memory.Value
	// b0rmw is the read index of the RMW pinned to the head of the write
	// order (-1 none): at most one RMW can read the initial value.
	b0rmw int32
	// rmwClaim[b] is the RMW read determined to read block b directly
	// (-1 none): an RMW must immediately follow its source write, so two
	// claimants refute.
	rmwClaim []int32

	edges  [][2]int32 // necessary ordering edges between blocks
	reject string     // first sound refutation ("" while none)
}

// fail records the first sound refutation.
func (c *refFastChecker) fail(detail string) {
	if c.reject == "" {
		c.reject = detail
	}
}

// newRefFastChecker indexes the writers of the instance: block ids, the
// per-history program-order chains (as necessary edges), and the
// nearest-writer tables used by the candidate rules.
func newRefFastChecker(inst *instance) *refFastChecker {
	// A counting pass sizes the writer, read and edge tables up front (the
	// edge list holds the program-order chains plus the at most two edges
	// each read determines), so the indexing pass never grows a slice.
	nw, nr := 0, 0
	for _, hist := range inst.hist {
		for _, o := range hist {
			if _, ok := o.Reads(); ok {
				nr++
			}
			if _, ok := o.Writes(); ok {
				nw++
			}
		}
	}
	c := &refFastChecker{
		inst:    inst,
		np:      len(inst.hist),
		b0rmw:   -1,
		wref:    make([]memory.Ref, 0, nw),
		wProc:   make([]int32, 0, nw),
		wOrd:    make([]int32, 0, nw),
		blockAt: perHistory[int32](inst.hist),
		prevW:   perHistory[int32](inst.hist),
		nextW:   perHistory[int32](inst.hist),
		valID:   make(map[memory.Value]int32),
		reads:   make([]refFastRead, 0, nr),
		readAt:  perHistory[int32](inst.hist),
		edges:   make([][2]int32, 0, nw+2*nr),
	}
	wValID := make([]int32, 0, nw) // block -> id of the value it writes
	var perVal []int32             // value id -> writer count
	for h, hist := range inst.hist {
		ba := c.blockAt[h]
		ord := int32(0)
		var last int32 = -1
		for i, o := range hist {
			ba[i] = -1
			if d, ok := o.Writes(); ok {
				b := int32(c.nw)
				c.nw++
				id, seen := c.valID[d]
				if !seen {
					id = int32(len(perVal))
					c.valID[d] = id
					perVal = append(perVal, 0)
				}
				perVal[id]++
				c.wref = append(c.wref, memory.Ref{Proc: h, Index: i})
				c.wProc = append(c.wProc, int32(h))
				c.wOrd = append(c.wOrd, ord)
				wValID = append(wValID, id)
				ba[i] = b
				ord++
				if last >= 0 {
					// Program order chains the writers of one history.
					c.edges = append(c.edges, [2]int32{last, b})
				}
				last = b
			}
		}
		pw, nx := c.prevW[h], c.nextW[h]
		run := int32(-1)
		for i := range hist {
			pw[i] = run
			if ba[i] >= 0 {
				run = ba[i]
			}
		}
		run = -1
		for i := len(hist) - 1; i >= 0; i-- {
			nx[i] = run
			if ba[i] >= 0 {
				run = ba[i]
			}
		}
	}
	// Bucket the blocks by value, carving every list out of one array;
	// blocks are visited in id order, so each list is ascending.
	flat := make([]int32, nw)
	c.byVal = make([][]int32, len(perVal))
	for id, n := range perVal {
		c.byVal[id], flat = flat[:0:n], flat[n:]
	}
	for b, id := range wValID {
		c.byVal[id] = append(c.byVal[id], int32(b))
	}
	c.rmwClaim = make([]int32, c.nw)
	for b := range c.rmwClaim {
		c.rmwClaim[b] = -1
	}
	return c
}

// writersOf returns the writer blocks of value d in ascending order.
func (c *refFastChecker) writersOf(d memory.Value) []int32 {
	if id, ok := c.valID[d]; ok {
		return c.byVal[id]
	}
	return nil
}

// collectReads builds the candidate source set of every read and
// immediately determines (or refutes) the forced ones.
//
// Candidates for a read of value v: the writers of v, except
//   - the read's own block (an RMW cannot read its own write), and
//   - same-history writers other than the nearest preceding one: a
//     same-history writer after the read would have to be scheduled
//     before itself, and an earlier-but-not-nearest one is overwritten
//     (in program order, hence in every schedule) before the read runs;
//
// plus the initial region when no same-history write precedes the read
// and the value is compatible with the declared initial value (if any).
func (c *refFastChecker) collectReads() {
	for h, hist := range c.inst.hist {
		for i, o := range hist {
			d, ok := o.Reads()
			if !ok {
				c.readAt[h][i] = -1
				continue
			}
			c.readAt[h][i] = int32(len(c.reads))
			r := refFastRead{proc: h, idx: i, val: d, rmw: o.Kind == memory.ReadModifyWrite, src: -1}
			pw := c.prevW[h][i]
			r.canB0 = pw < 0 && (c.inst.init == nil || *c.inst.init == d)
			own := int32(-1)
			if r.rmw {
				own = c.blockAt[h][i]
			}
			writers := c.writersOf(d)
			var cands []int32
			for _, w := range writers {
				if w == own {
					continue
				}
				if c.wProc[w] == int32(h) && w != pw {
					continue
				}
				cands = append(cands, w)
				if len(cands) > fastMaxCands {
					break
				}
			}
			ri := len(c.reads)
			switch {
			case len(cands) == 0 && !r.canB0:
				c.reads = append(c.reads, r)
				switch {
				case len(writers) == 0 && c.inst.init != nil && *c.inst.init != d:
					c.fail(fmt.Sprintf("P%d op %d reads %d: never written, initial value is %d", h, i, d, *c.inst.init))
				case len(writers) == 0:
					c.fail(fmt.Sprintf("P%d op %d reads %d: never written, but a write in its history precedes it", h, i, d))
				default:
					c.fail(fmt.Sprintf("P%d op %d reads %d: every write of the value is unreachable from it", h, i, d))
				}
				return
			case len(cands) > fastMaxCands:
				r.untracked = true
				c.reads = append(c.reads, r)
			case len(cands) == 0:
				c.reads = append(c.reads, r)
				c.determine(ri, -1)
			case len(cands) == 1 && !r.canB0:
				c.reads = append(c.reads, r)
				c.determine(ri, cands[0])
			default:
				r.cands = cands
				r.floating = true
				c.floating++
				c.reads = append(c.reads, r)
			}
			if c.reject != "" {
				return
			}
		}
	}
}

// determine fixes read ri's source and applies the resulting necessary
// constraints: edges into the block graph, the initial-region value
// binding, and the RMW adjacency refutations.
func (c *refFastChecker) determine(ri int, src int32) {
	r := &c.reads[ri]
	if r.floating {
		r.floating = false
		c.floating--
	}
	r.det, r.src, r.cands = true, src, nil
	h, i := r.proc, r.idx
	pw := c.prevW[h][i]

	if src < 0 { // the initial region
		if pw >= 0 {
			c.fail(fmt.Sprintf("P%d op %d must read the initial value but follows a write in its own history", h, i))
			return
		}
		if c.inst.init == nil {
			if c.b0bound && c.b0val != r.val {
				c.fail(fmt.Sprintf("initial region would need to hold both %d and %d", c.b0val, r.val))
				return
			}
			c.b0bound, c.b0val = true, r.val
		}
		if r.rmw {
			if c.b0rmw >= 0 {
				c.fail("two read-modify-writes both require the first position of the write order")
				return
			}
			c.b0rmw = int32(ri)
		}
		return
	}

	// The read runs inside its source's region: the nearest preceding
	// writer of its history cannot come later, and (for a pure read) the
	// nearest following writer cannot come earlier. For an RMW the
	// following writer is its own block, which must follow the source.
	if pw >= 0 && pw != src {
		c.edges = append(c.edges, [2]int32{pw, src})
	}
	if r.rmw {
		own := c.blockAt[h][i]
		if prev := c.rmwClaim[src]; prev >= 0 && prev != int32(ri) {
			c.fail("two read-modify-writes directly read the same write")
			return
		}
		c.rmwClaim[src] = int32(ri)
		c.edges = append(c.edges, [2]int32{src, own})
	} else if nx := c.nextW[h][i]; nx >= 0 && nx != src {
		c.edges = append(c.edges, [2]int32{src, nx})
	}
}

// int32 min-heap (no container/heap: the hot path stays allocation-lean
// and monomorphic).
func refHeapPush(h *[]int32, x int32) {
	*h = append(*h, x)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p] <= (*h)[i] {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func refHeapPop(h *[]int32) int32 {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(s) && s[l] < s[m] {
			m = l
		}
		if r < len(s) && s[r] < s[m] {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}

// buildCSR converts the edge list to compressed adjacency plus
// in-degrees. Duplicate edges are kept; Kahn's accounting stays
// consistent with them.
func (c *refFastChecker) buildCSR() (start, dst, indeg []int32) {
	start = make([]int32, c.nw+1)
	indeg = make([]int32, c.nw)
	for _, e := range c.edges {
		start[e[0]+1]++
		indeg[e[1]]++
	}
	for i := 0; i < c.nw; i++ {
		start[i+1] += start[i]
	}
	dst = make([]int32, len(c.edges))
	fill := append([]int32(nil), start[:c.nw]...)
	for _, e := range c.edges {
		dst[fill[e[0]]] = e[1]
		fill[e[0]]++
	}
	return start, dst, indeg
}

// fastTopo computes a deterministic (lowest-block-first) topological
// order of the necessary-edge graph. acyclic is false when a cycle
// blocks completion; unique reports that the ready set was a singleton
// at every step, i.e. the graph admits exactly one linear extension.
// holdBack (-1 = none) names a block to emit as late as possible — the
// designated final-value writer — without affecting acyclic/unique.
func (c *refFastChecker) fastTopo(start, dst, indegIn []int32, holdBack int32) (order []int32, acyclic, unique bool) {
	indeg := append([]int32(nil), indegIn...)
	var h []int32
	for b := c.nw - 1; b >= 0; b-- {
		if indeg[b] == 0 {
			refHeapPush(&h, int32(b))
		}
	}
	order = make([]int32, 0, c.nw)
	unique = true
	for len(h) > 0 {
		if len(h) > 1 {
			unique = false
		}
		b := refHeapPop(&h)
		if b == holdBack && len(h) > 0 {
			next := refHeapPop(&h)
			refHeapPush(&h, b)
			b = next
		}
		order = append(order, b)
		for j := start[b]; j < start[b+1]; j++ {
			w := dst[j]
			indeg[w]--
			if indeg[w] == 0 {
				refHeapPush(&h, w)
			}
		}
	}
	return order, len(order) == c.nw, unique
}

// clocks computes the vector-clock table over a topological order:
// vc[b·np+p] is the highest writer ordinal (1-based) of history p known
// to precede-or-equal block b in every linear extension. Because the
// writers of one history are chained by necessary edges, writer u
// precedes block w in every extension iff vc[w][proc(u)] ≥ ord(u)+1
// (and u ≠ w).
func (c *refFastChecker) clocks(order []int32, start, dst []int32) []int32 {
	vc := make([]int32, c.nw*c.np)
	for b := 0; b < c.nw; b++ {
		vc[b*c.np+int(c.wProc[b])] = c.wOrd[b] + 1
	}
	for _, b := range order {
		row := vc[int(b)*c.np : int(b+1)*c.np]
		for j := start[b]; j < start[b+1]; j++ {
			w := dst[j]
			wrow := vc[int(w)*c.np : int(w+1)*c.np]
			for p, v := range row {
				if v > wrow[p] {
					wrow[p] = v
				}
			}
		}
	}
	return vc
}

// strictlyBefore reports that block u precedes block w in every linear
// extension of the necessary edges (per the clocks table vc).
func (c *refFastChecker) strictlyBefore(vc []int32, u, w int32) bool {
	return u != w && vc[int(w)*c.np+int(c.wProc[u])] >= c.wOrd[u]+1
}

// pruneRound runs one propagate-and-prune iteration: topo-sort the
// current edges (cycle → sound reject), compute vector clocks, then
// shrink each floating read's candidate set using the nearest already-
// determined program-order neighbors. A read collapsing to a single
// candidate is determined, feeding the next round. Returns whether
// anything changed.
func (c *refFastChecker) pruneRound() (changed bool) {
	start, dst, indeg := c.buildCSR()
	order, acyclic, _ := c.fastTopo(start, dst, indeg, -1)
	if !acyclic {
		c.fail("necessary ordering constraints form a cycle")
		return false
	}
	if c.nw*c.np > fastMaxClockCells {
		return false // table too large; escalate instead
	}
	vc := c.clocks(order, start, dst)

	const none = int32(-3) // pd/nd encoding: -3 no determined neighbor, -1 initial region, ≥0 block
	for h, hist := range c.inst.hist {
		readAt := c.readAt[h]
		// nd[i]: the nearest determined operation at index > i — a writer
		// pins region(read) ≤ position(writer), a determined read pins
		// region(read) ≤ position(its source).
		nd := make([]int32, len(hist))
		run := none
		for i := len(hist) - 1; i >= 0; i-- {
			nd[i] = run
			if b := c.blockAt[h][i]; b >= 0 {
				run = b
				continue
			}
			if ri := readAt[i]; ri >= 0 && c.reads[ri].det {
				run = c.reads[ri].src
			}
		}
		pd := none
		for i := range hist {
			ri := int(readAt[i])
			isRead := ri >= 0
			if isRead && c.reads[ri].floating {
				if c.pruneRead(ri, pd, nd[i], vc) {
					changed = true
				}
				if c.reject != "" {
					return changed
				}
			}
			if b := c.blockAt[h][i]; b >= 0 {
				pd = b
			} else if isRead && c.reads[ri].det {
				pd = c.reads[ri].src
			}
		}
	}
	return changed
}

// pruneRead shrinks one floating read's candidates given its nearest
// determined program-order neighbors pd (before) and nd (after), both
// encoded as in pruneRound. Every drop is sound: a candidate is removed
// only when the necessary edges prove the read cannot sit in its
// region.
func (c *refFastChecker) pruneRead(ri int, pd, nd int32, vc []int32) (changed bool) {
	r := &c.reads[ri]
	if pd >= 0 && r.canB0 {
		// A writer (or a read of a written value) precedes this read: its
		// region is at least 1, never the initial region.
		r.canB0, changed = false, true
	}
	if r.canB0 && c.inst.init == nil && c.b0bound && c.b0val != r.val {
		r.canB0, changed = false, true
	}
	keep := r.cands[:0]
	for _, cand := range r.cands {
		switch {
		case nd == -1:
			// A later operation of this history reads the initial value:
			// this read sits in the initial region too; no writer applies.
			changed = true
		case pd >= 0 && cand != pd && c.strictlyBefore(vc, cand, pd):
			changed = true
		case nd >= 0 && cand != nd && c.strictlyBefore(vc, nd, cand):
			changed = true
		default:
			keep = append(keep, cand)
		}
	}
	r.cands = keep

	n := len(r.cands)
	if r.canB0 {
		n++
	}
	switch n {
	case 0:
		c.fail(fmt.Sprintf("P%d op %d reads %d: no admissible source write remains", r.proc, r.idx, r.val))
	case 1:
		if len(r.cands) == 1 {
			c.determine(ri, r.cands[0])
		} else {
			c.determine(ri, -1)
		}
		changed = true
	}
	return changed
}

// refFastRejectResult builds the Decided-incoherent result of a sound
// refutation.
func refFastRejectResult() *Result {
	return &Result{Coherent: false, Decided: true, Algorithm: "fastpath"}
}

// refFastInstance runs the frontline over a projected instance. It honors
// the caller's wall-clock timeout and cancellation (polled between
// phases — every phase is a linear pass) but never charges MaxStates:
// the frontline is the cheap gate in front of the state-bounded
// searches, so a tight state budget must not disable it.
func refFastInstance(ctx context.Context, inst *instance, opts *Options) (*fastOutcome, *solver.ErrBudgetExceeded) {
	begin := time.Now()
	out := &fastOutcome{verdict: fastInconclusive}
	out.stats.States = inst.nops

	finish := func(v fastVerdict, r *Result, detail string) (*fastOutcome, *solver.ErrBudgetExceeded) {
		out.stats.Duration = time.Since(begin)
		out.verdict, out.result, out.detail = v, r, detail
		if r != nil {
			r.Algorithm = "fastpath"
			stampOps(r, inst)
			r.Stats.Duration = out.stats.Duration
		}
		return out, nil
	}

	bud := solver.Start(ctx, &solver.Options{Timeout: opts.SolveTimeout()})
	defer bud.Stop()
	bctx := bud.Context()
	interrupted := func() *solver.ErrBudgetExceeded {
		e := solver.Interrupted(bctx)
		if e != nil {
			e.Stats = out.stats
			e.Stats.Duration = time.Since(begin)
		}
		return e
	}

	c := newRefFastChecker(inst)
	if c.nw == 0 {
		// No writes: the empty write order is the only one, so the §5.2
		// placement is a complete decision procedure here.
		r, err := refWriteOrderInstance(inst, nil)
		if err != nil {
			return finish(fastInconclusive, nil, "placement error: "+err.Error())
		}
		if r.Coherent {
			return finish(fastAccept, r, "")
		}
		return finish(fastReject, r, "no coherent placement without writes")
	}
	if inst.final != nil && len(c.writersOf(*inst.final)) == 0 {
		return finish(fastReject, refFastRejectResult(), fmt.Sprintf("declared final value %d is never written", *inst.final))
	}
	if e := interrupted(); e != nil {
		return nil, e
	}

	c.collectReads()
	if c.reject != "" {
		return finish(fastReject, refFastRejectResult(), c.reject)
	}
	if e := interrupted(); e != nil {
		return nil, e
	}

	if c.floating > 0 {
		for round := 0; round < fastMaxRounds && c.floating > 0; round++ {
			changed := c.pruneRound()
			if c.reject != "" {
				return finish(fastReject, refFastRejectResult(), c.reject)
			}
			if e := interrupted(); e != nil {
				return nil, e
			}
			if !changed {
				break
			}
		}
	}

	// Derive a concrete write order and let the complete §5.2 placement
	// decide it. The designated final-value writer is emitted as late as
	// the constraints allow, but only one with no required successor can
	// ever be last.
	holdBack := int32(-1)
	if inst.final != nil {
		outdeg := make([]int32, c.nw)
		for _, e := range c.edges {
			outdeg[e[0]]++
		}
		for _, b := range c.writersOf(*inst.final) {
			if outdeg[b] == 0 {
				holdBack = b
				break
			}
		}
		if holdBack < 0 {
			return finish(fastReject, refFastRejectResult(),
				fmt.Sprintf("every write of the declared final value %d has a required successor write", *inst.final))
		}
	}
	start, dst, indeg := c.buildCSR()
	order, acyclic, unique := c.fastTopo(start, dst, indeg, holdBack)
	if !acyclic {
		return finish(fastReject, refFastRejectResult(), "necessary ordering constraints form a cycle")
	}
	refs := make([]memory.Ref, len(order))
	for i, b := range order {
		refs[i] = c.wref[b]
	}
	if e := interrupted(); e != nil {
		return nil, e
	}
	r, err := refWriteOrderInstance(inst, refs)
	if err != nil {
		return finish(fastInconclusive, nil, "placement error: "+err.Error())
	}
	if r.Coherent {
		return finish(fastAccept, r, "")
	}
	if unique {
		// The edge set admits exactly one write order and the complete
		// placement refuted it: no coherent schedule exists.
		return finish(fastReject, r, "the only admissible write order has no coherent placement")
	}
	return finish(fastInconclusive, nil, "write order not forced; placement of the candidate order failed")
}

// refFastPath is the ladder's fast rung: the frontline over the projected
// instance. Accept certificates are re-validated against exec with
// memory.CheckCoherent; a certificate that fails validation demotes the
// outcome to inconclusive rather than ever reporting an unvalidated
// accept.
func refFastPath(ctx context.Context, exec *memory.Execution, inst *instance, opts *Options) (*fastOutcome, *solver.ErrBudgetExceeded) {
	out, e := refFastInstance(ctx, inst, opts)
	if e != nil {
		return nil, e
	}
	if out.verdict == fastAccept {
		if err := memory.CheckCoherent(exec, inst.addr, out.result.Schedule); err != nil {
			out = &fastOutcome{
				verdict: fastInconclusive,
				stats:   out.stats,
				detail:  "certificate failed validation: " + err.Error(),
			}
		}
	}
	return out, nil
}

// refValidateWriteOrder checks that order lists every writing op of the
// instance exactly once, respecting program order. It returns the region
// table of the order: regionOf[p][i] is b+1 for the writer at order[b],
// and 0 for every op that does not write.
func (in *instance) refValidateWriteOrder(order []memory.Ref) (regionOf [][]int32, err error) {
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

// refWriteOrderInstance runs the §5.2 algorithm over a projected instance.
// order holds projection refs of the writing operations.
func refWriteOrderInstance(inst *instance, order []memory.Ref) (r *Result, err error) {
	defer func() { stampOps(r, inst) }()
	regionOf, err := inst.refValidateWriteOrder(order)
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
		if sched, ok := refPlaceReads(inst, order, regionOf, init); ok {
			return &Result{Coherent: true, Decided: true, Schedule: inst.translate(sched), Algorithm: "write-order"}, nil
		}
	}
	return &Result{Coherent: false, Decided: true, Algorithm: "write-order"}, nil
}

// refPlaceReads attempts to extend the write order into a full coherent
// schedule with the pre-write region bound to init (nil means the region
// matches no read). regionOf is the order's region table from
// refValidateWriteOrder. It returns the schedule in projection refs.
func refPlaceReads(inst *instance, order []memory.Ref, regionOf [][]int32, init *memory.Value) ([]memory.Ref, bool) {
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

// perHistory returns one zeroed row per history of hist, carved from a
// single backing array: the dense (proc, index) table the reference
// checker and placement use instead of maps keyed by memory.Ref.
func perHistory[T any](hist []memory.History) [][]T {
	n := 0
	for _, h := range hist {
		n += len(h)
	}
	flat := make([]T, n)
	rows := make([][]T, len(hist))
	for p, h := range hist {
		rows[p], flat = flat[:len(h):len(h)], flat[len(h):]
	}
	return rows
}
