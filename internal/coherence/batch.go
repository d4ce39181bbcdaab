package coherence

import (
	"context"
	"sync"

	"memverify/internal/memory"
)

// SolveBatch runs the escalation ladder over many single-address VMC
// instances. It exists for workloads shaped like memverifyd's
// cache-miss bursts — many independent litmus-sized jobs, each cheap to
// solve, where a loop over Verifier.SolveAddr spends more time on
// per-call ceremony (validation, projection, allocation) than on the
// solves themselves.
//
// Jobs over one execution form a group, and each group goes through
// the address loop every multi-address entry point shares (eachAddr):
//
//   - Validate runs once per distinct *Execution, not once per job;
//   - all of the group's addresses are projected in a single pass over
//     the histories into pooled backing arrays — a loop of SolveAddr
//     re-scans the whole execution once per address, so an A-address
//     burst does ~2A full scans where the batch does ~2;
//   - the exact rung's layout, memo table, budget and searcher buffers
//     come from the same pooled searchScratch every search uses, with
//     the memo sized to the instance.
//
// Each job climbs exactly the ladder SolveAddr climbs, so verdicts,
// rungs, algorithms and evidence agree. Options.ParallelSearch is
// cleared for batch jobs: litmus-sized instances are below any useful
// frontier split.

// BatchJob names one single-address VMC instance of a batch: decide
// coherence of Exec's operations at Addr.
type BatchJob struct {
	Exec *memory.Execution
	Addr memory.Addr
}

// BatchResult is the outcome of one BatchJob. The report is embedded
// by value so a batch of N jobs costs one slice allocation, not N.
type BatchResult struct {
	// AddrReport is the ladder's report for the job, the one SolveAddr
	// returns; meaningful only when Err is nil.
	AddrReport
	// Err is the per-job error: validation failure or budget trip. One
	// job's error never aborts its siblings.
	Err error
}

// SolveBatch solves every job under the verifier's configured strategy
// and budget, on the caller's goroutine, and returns one BatchResult per
// job in job order. A cancelled context marks the remaining jobs' Err.
func (v *Verifier) SolveBatch(ctx context.Context, jobs []BatchJob) []BatchResult {
	out := make([]BatchResult, len(jobs))
	if len(jobs) == 0 {
		return out
	}
	groupOf := make(map[*memory.Execution]int, min(len(jobs), 64))
	var groups []batchGroup
	for i := range jobs {
		g, ok := groupOf[jobs[i].Exec]
		if !ok {
			g = len(groups)
			groupOf[jobs[i].Exec] = g
			groups = append(groups, batchGroup{exec: jobs[i].Exec})
		}
		groups[g].jobIdx = append(groups[g].jobIdx, i)
		groups[g].addrs = append(groups[g].addrs, jobs[i].Addr)
	}

	opts := v.cfg.Options
	if opts.ParallelSearch != 0 {
		opts = opts.Clone()
		opts.ParallelSearch = 0
	}
	var g *batchGroup
	visit := func(i int, ar *AddrReport, err error) bool {
		br := &out[g.jobIdx[i]]
		br.AddrReport, br.Err = *ar, err
		return true
	}
	for gi := range groups {
		g = &groups[gi]
		if err := v.eachAddr(ctx, g.exec, g.addrs, opts, nil, visit); err != nil {
			for _, i := range g.jobIdx {
				out[i].Err = err
			}
		}
	}
	return out
}

// batchGroup is every job of one batch that shares an execution, with
// the address of each.
type batchGroup struct {
	exec   *memory.Execution
	jobIdx []int
	addrs  []memory.Addr
}

// groupScratch is the address loop's grouped-projection state: one pass
// over an execution's histories fills instances for every address the
// loop requests. All slices are carved from the g* backing arrays, which
// grow to the largest group seen and are then reused verbatim.
type groupScratch struct {
	gAddrIdx map[memory.Addr]int
	gAddrs   []memory.Addr // index -> addr, the inverse of gAddrIdx
	gSlot    []int32       // dense addr -> index+1 table (0 = untracked)
	gInsts   []instance
	gInit    []memory.Value
	gFinal   []memory.Value
	gHist    []memory.History // A*P history headers
	gBackHdr [][]memory.Ref   // A*P back-map headers
	gOps     []memory.Op      // backing for every projected op
	gBack    []memory.Ref     // backing for every back-map entry
	gCount   []int            // per (addr, proc) op counts, then fill cursors
}

// groupSlotMax bounds the dense address table: a group whose addresses
// all fall in [0, groupSlotMax) resolves each op's address with a slice
// index instead of a map lookup in the projection passes. 64 KiB once
// per pooled scratch.
const groupSlotMax = 1 << 14

var groupScratchPool = sync.Pool{New: func() any {
	return &groupScratch{gAddrIdx: make(map[memory.Addr]int)}
}}

// groupProject fills gs.gInsts with one instance per distinct address
// of addrs, projecting all of them in a single pass over the
// execution's histories. Two counting+filling passes replace the
// len(addrs) full Project scans a loop would do; every slice is carved
// out of reusable backing arrays, so a group costs O(1) allocations once
// the pool is warm. An execution that is its own projection at the one
// requested address (ownProjection) is handed over as it is: the
// instance aliases its histories and both passes are skipped.
func (gs *groupScratch) groupProject(exec *memory.Execution, addrs []memory.Addr) {
	clear(gs.gAddrIdx)
	gs.gAddrs = gs.gAddrs[:0]
	dense := true
	for _, addr := range addrs {
		if _, ok := gs.gAddrIdx[addr]; !ok {
			gs.gAddrIdx[addr] = len(gs.gAddrs)
			gs.gAddrs = append(gs.gAddrs, addr)
			if addr < 0 || addr >= groupSlotMax {
				dense = false
			}
		}
	}
	na := len(gs.gAddrs)
	gs.gInsts = growSlice(gs.gInsts, na)
	gs.gInit = growSlice(gs.gInit, na)
	gs.gFinal = growSlice(gs.gFinal, na)
	if na == 1 && ownProjection(exec, gs.gAddrs[0]) {
		gs.assemble(exec, 0, exec.Histories, nil, exec.NumOps())
		return
	}
	// The dense table turns the per-op address lookup of both passes
	// into a slice index. Slots are set for the group's addresses only
	// and cleared the same way, so a group costs O(addresses) table
	// maintenance regardless of groupSlotMax.
	if dense {
		if gs.gSlot == nil {
			gs.gSlot = make([]int32, groupSlotMax)
		}
		for idx, addr := range gs.gAddrs {
			gs.gSlot[addr] = int32(idx) + 1
		}
		defer func() {
			for _, addr := range gs.gAddrs {
				gs.gSlot[addr] = 0
			}
		}()
	}
	np := len(exec.Histories)

	// Pass 1: count projected ops per (address, process).
	gs.gCount = growSlice(gs.gCount, 2*na*np)
	counts, cursors := gs.gCount[:na*np], gs.gCount[na*np:]
	clear(counts)
	total := 0
	for p, h := range exec.Histories {
		if dense {
			slot := gs.gSlot
			for _, o := range h {
				if !o.IsMemory() {
					continue
				}
				if a := o.Addr; a >= 0 && a < groupSlotMax && slot[a] != 0 {
					counts[int(slot[a]-1)*np+p]++
					total++
				}
			}
			continue
		}
		for _, o := range h {
			if !o.IsMemory() {
				continue
			}
			if a, ok := gs.gAddrIdx[o.Addr]; ok {
				counts[a*np+p]++
				total++
			}
		}
	}

	// Carve the per-(address, process) sub-histories and back-maps out
	// of two flat backing arrays, recording each slot's start cursor.
	gs.gOps = growSlice(gs.gOps, total)
	gs.gBack = growSlice(gs.gBack, total)
	gs.gHist = growSlice(gs.gHist, na*np)
	gs.gBackHdr = growSlice(gs.gBackHdr, na*np)
	off := 0
	for s := range counts {
		n := counts[s]
		gs.gHist[s] = memory.History(gs.gOps[off : off+n : off+n])
		gs.gBackHdr[s] = gs.gBack[off : off+n : off+n]
		cursors[s] = off
		off += n
	}

	// Pass 2: fill.
	for p, h := range exec.Histories {
		if dense {
			slot := gs.gSlot
			for i, o := range h {
				if !o.IsMemory() {
					continue
				}
				a := o.Addr
				if a < 0 || a >= groupSlotMax || slot[a] == 0 {
					continue
				}
				s := int(slot[a]-1)*np + p
				c := cursors[s]
				gs.gOps[c] = o
				gs.gBack[c] = memory.Ref{Proc: p, Index: i}
				cursors[s] = c + 1
			}
			continue
		}
		for i, o := range h {
			if !o.IsMemory() {
				continue
			}
			a, ok := gs.gAddrIdx[o.Addr]
			if !ok {
				continue
			}
			s := a*np + p
			c := cursors[s]
			gs.gOps[c] = o
			gs.gBack[c] = memory.Ref{Proc: p, Index: i}
			cursors[s] = c + 1
		}
	}

	for a := range gs.gAddrs {
		nops := 0
		for s := a * np; s < (a+1)*np; s++ {
			nops += counts[s]
		}
		gs.assemble(exec, a, gs.gHist[a*np:(a+1)*np], gs.gBackHdr[a*np:(a+1)*np], nops)
	}
}

// assemble fills instance a of the group. gInit/gFinal are sized before
// any pointer into them is taken, so the pointers stay valid for the
// group.
func (gs *groupScratch) assemble(exec *memory.Execution, a int, hist []memory.History, back [][]memory.Ref, nops int) {
	addr := gs.gAddrs[a]
	gs.gInsts[a] = instance{addr: addr, hist: hist, backIdx: back, nops: nops}
	if d, ok := exec.Initial[addr]; ok {
		gs.gInit[a] = d
		gs.gInsts[a].init = &gs.gInit[a]
	}
	if d, ok := exec.Final[addr]; ok {
		gs.gFinal[a] = d
		gs.gInsts[a].final = &gs.gFinal[a]
	}
}
