package coherence

import (
	"context"
	"fmt"
	"sync"
	"time"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// SolveReadMap decides VMC in linear time for instances in which every
// data value is written at most once, so the read-map (which write each
// read observes) is forced (Figure 5.3, "1 Write/Value" row; the result
// follows from Gibbons & Korach).
//
// The algorithm groups operations into clusters, one per written value
// plus one for the initial value: in any coherent schedule the operations
// of a cluster are contiguous (the write followed by its reads, before
// the next write). Read-modify-writes fuse clusters into chains — an
// RMW(d_r, d_w) is the head of d_w's cluster and must immediately follow
// d_r's cluster, so both live in one chain. Coherence then reduces to
// topologically ordering the chain graph induced by program order.
//
// An error is returned if some value is written twice, or in the
// ambiguous corner where the declared initial value is also written and
// observed by some read (then the read-map is not forced; use Solve).
func SolveReadMap(ctx context.Context, exec *memory.Execution, addr memory.Addr) (r *Result, err error) {
	if err := exec.Validate(); err != nil {
		return nil, err
	}
	if e := solver.Interrupted(ctx); e != nil {
		return nil, withAddr(e, addr)
	}
	sp, ctx := beginSolve(ctx, "read-map", addr)
	defer func() { endSolve(ctx, sp, r, err) }()
	start := time.Now()
	inst := project(exec, addr)
	if max := inst.maxWritesPerValue(); max > 1 {
		return nil, fmt.Errorf("coherence: some value is written %d times; the read-map algorithm requires at most one write per value", max)
	}
	r, ok := readMapInstance(inst)
	if !ok {
		return nil, fmt.Errorf("coherence: the read-map for address %d is not forced (initial-value ambiguity); use the general solver", addr)
	}
	r.Stats.Duration = time.Since(start)
	return r, nil
}

// readMapScratch holds every buffer the cluster-chain algorithm needs.
// The algorithm is linear-time, so on litmus-sized instances its
// per-call allocations used to cost more than the traversal itself;
// pooling them makes a read-map solve allocation-free except for the
// returned Result and certificate.
type readMapScratch struct {
	writeCluster map[memory.Value]int
	headRef      []memory.Ref
	headOp       []memory.Op
	chainNext    []int
	chainPrev    []int
	chainOf      []int
	segOf        []int
	chainHead    []int // chain id -> head cluster
	// Per-(cluster, process) read lists as linked lists through
	// readsNext, so collecting reads costs zero allocations: readsRef[i]
	// is the i-th read encountered, readsNext[i] the next read of the
	// same (cluster, process) bucket.
	readsHead []int32
	readsTail []int32
	readsNext []int32
	readsRef  []memory.Ref
	adj       [][]int
	indeg     []int
	edgeSeen  map[[2]int]bool
	topo      []int
	sched     []memory.Ref
}

var readMapPool = sync.Pool{New: func() any {
	return &readMapScratch{
		writeCluster: make(map[memory.Value]int),
		edgeSeen:     make(map[[2]int]bool),
	}
}}

// readMapInstance runs the cluster-chain algorithm. ok is false when a
// value is written more than once (the row does not apply) or in the
// ambiguous initial-value corner described on SolveReadMap.
func readMapInstance(inst *instance) (r *Result, ok bool) {
	sc := readMapPool.Get().(*readMapScratch)
	r, ok = sc.run(inst)
	readMapPool.Put(sc)
	stampOps(r, inst)
	return r, ok
}

// run is the cluster-chain algorithm proper, on pooled state.
func (sc *readMapScratch) run(inst *instance) (r *Result, ok bool) {
	// Cluster 0 is the initial-value cluster; each written value d gets
	// cluster writeCluster[d] >= 1 whose head is the op writing d.
	const initCluster = 0
	writeCluster := sc.writeCluster
	clear(writeCluster)
	headRef := append(sc.headRef[:0], memory.Ref{}) // indexed by cluster; slot 0 unused
	headOp := append(sc.headOp[:0], memory.Op{})
	next := 1
	for p, h := range inst.hist {
		for i, o := range h {
			if d, ok := o.Writes(); ok {
				if _, dup := writeCluster[d]; dup {
					// A value written twice: the row does not apply.
					sc.headRef, sc.headOp = headRef, headOp
					return nil, false
				}
				writeCluster[d] = next
				headRef = append(headRef, memory.Ref{Proc: p, Index: i})
				headOp = append(headOp, o)
				next++
			}
		}
	}
	sc.headRef, sc.headOp = headRef, headOp
	incoherent := &Result{Coherent: false, Decided: true, Algorithm: "read-map"}

	// Ambiguity checks — cases where the read-map is not actually forced:
	//  1. the declared initial value is also written and observed by some
	//     read (the read could map to either source);
	//  2. no initial value is declared and a read of a written value has
	//     no write earlier in its own history (the read could instead
	//     bind the initial value and be scheduled before all writes).
	if inst.init != nil {
		if _, written := writeCluster[*inst.init]; written {
			for _, h := range inst.hist {
				for _, o := range h {
					if d, ok := o.Reads(); ok && d == *inst.init {
						return nil, false
					}
				}
			}
		}
	} else {
		for _, h := range inst.hist {
			for _, o := range h {
				if d, ok := o.Reads(); ok {
					if _, written := writeCluster[d]; written {
						return nil, false
					}
				}
				if _, ok := o.Writes(); ok {
					break // later reads have a write before them
				}
			}
		}
	}

	initBound := false
	var initValue memory.Value
	if inst.init != nil {
		initBound, initValue = true, *inst.init
	}

	// readClusterOf maps an observed value to its source cluster,
	// handling initial-value binding. The bool is false on incoherence.
	readClusterOf := func(d memory.Value) (int, bool) {
		if c, ok := writeCluster[d]; ok {
			return c, true
		}
		if initBound {
			if d != initValue {
				return 0, false
			}
		} else {
			initBound, initValue = true, d
		}
		return initCluster, true
	}

	// Chain fusion: an RMW heading cluster c reads the value of cluster
	// src, so src must immediately precede c. chainNext/chainPrev record
	// the fusion; a second consumer of the same cluster is incoherent.
	chainNext := growSlice(sc.chainNext, next)
	chainPrev := growSlice(sc.chainPrev, next)
	sc.chainNext, sc.chainPrev = chainNext, chainPrev
	for c := range chainNext {
		chainNext[c], chainPrev[c] = -1, -1
	}
	for c := 1; c < next; c++ {
		o := headOp[c]
		if o.Kind != memory.ReadModifyWrite {
			continue
		}
		src, ok := readClusterOf(o.Data)
		if !ok {
			return incoherent, true
		}
		if src == c {
			// RMW reads the value it writes; with unique writes this is
			// only coherent if... it would have to follow itself.
			return incoherent, true
		}
		if chainNext[src] != -1 || chainPrev[c] != -1 {
			return incoherent, true
		}
		chainNext[src] = c
		chainPrev[c] = src
	}

	// Detect chain cycles and assign (chain, segment) coordinates.
	chainOf := growSlice(sc.chainOf, next)
	segOf := growSlice(sc.segOf, next)
	sc.chainOf, sc.segOf = chainOf, segOf
	for c := range chainOf {
		chainOf[c] = -1
	}
	chainHead := sc.chainHead[:0] // chain id -> head cluster
	for c := 0; c < next; c++ {
		if chainPrev[c] != -1 {
			continue // not a chain head
		}
		id := len(chainHead)
		chainHead = append(chainHead, c)
		seg := 0
		for cur := c; cur != -1; cur = chainNext[cur] {
			chainOf[cur] = id
			segOf[cur] = seg
			seg++
		}
	}
	sc.chainHead = chainHead
	for c := 0; c < next; c++ {
		if chainOf[c] == -1 {
			return incoherent, true // cluster trapped in a chain cycle
		}
	}

	// Per-cluster reads, grouped by process to preserve program order:
	// linked lists through readsNext, bucketed by cluster*np + process.
	np := len(inst.hist)
	readsHead := growSlice(sc.readsHead, next*np)
	readsTail := growSlice(sc.readsTail, next*np)
	sc.readsNext = sc.readsNext[:0]
	sc.readsRef = sc.readsRef[:0]
	sc.readsHead, sc.readsTail = readsHead, readsTail
	for i := range readsHead {
		readsHead[i], readsTail[i] = -1, -1
	}
	addRead := func(c, p int, ref memory.Ref) {
		i := int32(len(sc.readsRef))
		sc.readsRef = append(sc.readsRef, ref)
		sc.readsNext = append(sc.readsNext, -1)
		b := c*np + p
		if readsTail[b] == -1 {
			readsHead[b] = i
		} else {
			sc.readsNext[readsTail[b]] = i
		}
		readsTail[b] = i
	}

	// Chain-level precedence graph + intra-chain position checks.
	// Position of an op inside a chain: (segment, phase) with phase 0 for
	// the segment head and 1 for its reads.
	nchains := len(chainHead)
	adj := growSlice(sc.adj, nchains)
	sc.adj = adj
	for i := range adj {
		adj[i] = adj[i][:0]
	}
	indeg := growSlice(sc.indeg, nchains)
	sc.indeg = indeg
	clear(indeg)
	edgeSeen := sc.edgeSeen
	clear(edgeSeen)
	addEdge := func(a, b int) bool {
		if a == b {
			return true
		}
		k := [2]int{a, b}
		if !edgeSeen[k] {
			edgeSeen[k] = true
			adj[a] = append(adj[a], b)
			indeg[b]++
		}
		return true
	}
	// The initial cluster's chain precedes every other chain.
	initChain := chainOf[initCluster]
	for id := 0; id < nchains; id++ {
		addEdge(initChain, id)
	}

	for p, h := range inst.hist {
		prevChain, prevPos, prevWasHead := -1, 0, false
		for i, o := range h {
			var c int
			var phase int
			if _, isWrite := o.Writes(); isWrite {
				c = writeCluster[mustWriteValue(o)]
				phase = 0
			} else {
				src, ok := readClusterOf(o.Data)
				if !ok {
					return incoherent, true
				}
				c = src
				phase = 1
				addRead(c, p, memory.Ref{Proc: p, Index: i})
			}
			id := chainOf[c]
			pos := segOf[c]*2 + phase
			if prevChain == id {
				// Same chain: program order must be consistent with the
				// fixed intra-chain layout. Two reads of one segment may
				// share a position; a head may not repeat.
				if pos < prevPos || (pos == prevPos && (prevWasHead || phase == 0)) {
					return incoherent, true
				}
			} else if prevChain >= 0 {
				addEdge(prevChain, id)
			}
			prevChain, prevPos, prevWasHead = id, pos, phase == 0
		}
	}

	// Final-value constraint: the final value's cluster must be the last
	// segment of its chain, and that chain must be a sink of the DAG.
	finalChain := -1
	if inst.final != nil && len(writeCluster) > 0 {
		c, ok := writeCluster[*inst.final]
		if !ok {
			return incoherent, true
		}
		if chainNext[c] != -1 {
			return incoherent, true
		}
		id := chainOf[c]
		if len(adj[id]) > 0 {
			return incoherent, true
		}
		finalChain = id
	}
	if inst.final != nil && len(writeCluster) == 0 && initBound && initValue != *inst.final {
		return incoherent, true
	}

	// Topological sort (Kahn), keeping the final chain last. queue and
	// topo share one pooled buffer: Kahn's queue only ever grows at the
	// tail, so the consumed prefix IS the topological order.
	topo := sc.topo[:0]
	for id := 0; id < nchains; id++ {
		if indeg[id] == 0 && id != finalChain {
			topo = append(topo, id)
		}
	}
	for qi := 0; qi < len(topo); qi++ {
		for _, d := range adj[topo[qi]] {
			indeg[d]--
			if indeg[d] == 0 && d != finalChain {
				topo = append(topo, d)
			}
		}
	}
	sc.topo = topo
	if finalChain >= 0 {
		if indeg[finalChain] != 0 {
			return incoherent, true
		}
		topo = append(topo, finalChain)
		sc.topo = topo
	}
	if len(topo) != nchains {
		return incoherent, true // cycle among chains
	}

	// Emit the schedule: chains in topological order; within a chain,
	// each segment head followed by the segment's reads (per process in
	// program order; cross-process order within a segment is free).
	sched := sc.sched[:0]
	for _, id := range topo {
		for c := chainHead[id]; c != -1; c = chainNext[c] {
			if c != initCluster {
				sched = append(sched, headRef[c])
			}
			for p := 0; p < np; p++ {
				for ri := readsHead[c*np+p]; ri != -1; ri = sc.readsNext[ri] {
					sched = append(sched, sc.readsRef[ri])
				}
			}
		}
	}
	sc.sched = sched
	return &Result{
		Coherent:  true,
		Decided:   true,
		Schedule:  inst.translate(sched),
		Algorithm: "read-map",
	}, true
}

// mustWriteValue returns the written value of an op known to write.
// The panic is a true invariant, not input validation: every caller
// filters its refs through Writes() before collecting them, so a
// non-writing op here means the specialist's write indices are corrupt.
func mustWriteValue(o memory.Op) memory.Value {
	d, ok := o.Writes()
	if !ok {
		panic(fmt.Sprintf("coherence: invariant violated: mustWriteValue on non-writing op %v (read-map specialist collected a non-write ref)", o))
	}
	return d
}
