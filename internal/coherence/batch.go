package coherence

import (
	"context"
	"sync"
	"sync/atomic"

	"memverify/internal/memory"
)

// SolveBatch runs the escalation ladder over many single-address VMC
// instances with pooled state. It exists for workloads shaped like
// memverifyd's cache-miss bursts — many independent litmus-sized jobs,
// each cheap to solve, where a loop over Verifier.SolveAddr spends more
// time on per-call ceremony (validation, projection, allocation) than
// on the solves themselves.
//
// What the batch path shares, per job, relative to a looped SolveAddr:
//
//   - Validate runs once per distinct *Execution, not once per job;
//   - jobs over one execution are grouped, and all of the group's
//     addresses are projected in a single pass over the histories into
//     pooled backing arrays — a loop re-scans the whole execution once
//     per address, so an A-address burst does ~2A full scans where the
//     batch does ~2;
//   - the exact rung's layout, memo table, budget and searcher buffers
//     come from the same pooled searchScratch every search uses, with
//     the memo sized to the instance.
//
// Each job climbs exactly the ladder SolveAddr climbs, so verdicts,
// rungs, algorithms and evidence agree. Batch throughput comes from
// shared setup and from fanning execution groups across Config.Workers,
// not from Options.ParallelSearch, which is cleared for batch jobs
// (litmus-sized instances are below any useful frontier split).

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

// batchScratch is one worker's grouped-projection state: one pass over
// an execution's histories fills instances for every address its group
// requests. All slices are carved from the g* backing arrays, which
// grow to the largest group seen and are then reused verbatim.
type batchScratch struct {
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

// batchSlotMax bounds the dense address table: a group whose addresses
// all fall in [0, batchSlotMax) resolves each op's address with a slice
// index instead of a map lookup in the projection passes. 64 KiB once
// per pooled scratch.
const batchSlotMax = 1 << 14

var batchScratchPool = sync.Pool{New: func() any {
	return &batchScratch{gAddrIdx: make(map[memory.Addr]int)}
}}

// SolveBatch solves every job under the verifier's configured strategy
// and budget, fanning execution groups across Config.Workers pooled
// workers, and returns one BatchResult per job in job order. A
// cancelled context marks the remaining jobs' Err.
func (v *Verifier) SolveBatch(ctx context.Context, jobs []BatchJob) []BatchResult {
	out := make([]BatchResult, len(jobs))
	if len(jobs) == 0 {
		return out
	}

	// Group jobs by execution. A group is the unit of work a worker
	// claims: it validates the execution once and projects every
	// requested address in one pass over the histories.
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
	}

	opts := v.cfg.Options
	if opts.ParallelSearch != 0 {
		opts = opts.Clone()
		opts.ParallelSearch = 0
	}
	var nextGroup atomic.Int64
	drain := func() {
		bs := batchScratchPool.Get().(*batchScratch)
		defer batchScratchPool.Put(bs)
		for {
			gi := int(nextGroup.Add(1)) - 1
			if gi >= len(groups) {
				return
			}
			v.solveGroup(ctx, bs, jobs, &groups[gi], opts, out)
		}
	}
	workers := min(max(v.cfg.Workers, 1), len(groups))
	if workers == 1 {
		// On the caller's goroutine: its stack has already grown to what
		// the exact search recurses through, a fresh goroutine's has not.
		drain()
		return out
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	wg.Wait()
	return out
}

// batchGroup is every job of one batch that shares an execution.
type batchGroup struct {
	exec   *memory.Execution
	jobIdx []int
}

// solveGroup validates the group's execution once, projects all of its
// addresses in one pass, and climbs the ladder for each job.
func (v *Verifier) solveGroup(ctx context.Context, bs *batchScratch, jobs []BatchJob, g *batchGroup, opts *Options, out []BatchResult) {
	if err := g.exec.Validate(); err != nil {
		for _, i := range g.jobIdx {
			out[i].Err = err
		}
		return
	}
	bs.groupProject(g.exec, jobs, g.jobIdx)
	for _, i := range g.jobIdx {
		br := &out[i]
		inst := &bs.gInsts[bs.gAddrIdx[jobs[i].Addr]]
		if err := v.decide(ctx, g.exec, inst, opts, &br.AddrReport); err != nil {
			br.Err = err
		}
	}
}

// groupProject fills bs.gInsts with one instance per distinct address
// in the group, projecting all of them in a single pass over the
// execution's histories. Two counting+filling passes replace the
// len(addrs) full Project scans a loop would do; every slice is carved
// out of reusable backing arrays, so a group costs O(1) allocations once
// the pool is warm. An execution that is its own projection at the one
// requested address (ownProjection) is handed over as it is: the
// instance aliases its histories and both passes are skipped.
func (bs *batchScratch) groupProject(exec *memory.Execution, jobs []BatchJob, jobIdx []int) {
	clear(bs.gAddrIdx)
	bs.gAddrs = bs.gAddrs[:0]
	dense := true
	for _, i := range jobIdx {
		addr := jobs[i].Addr
		if _, ok := bs.gAddrIdx[addr]; !ok {
			bs.gAddrIdx[addr] = len(bs.gAddrs)
			bs.gAddrs = append(bs.gAddrs, addr)
			if addr < 0 || addr >= batchSlotMax {
				dense = false
			}
		}
	}
	na := len(bs.gAddrs)
	bs.gInsts = growSlice(bs.gInsts, na)
	bs.gInit = growSlice(bs.gInit, na)
	bs.gFinal = growSlice(bs.gFinal, na)
	if na == 1 && ownProjection(exec, bs.gAddrs[0]) {
		bs.assemble(exec, 0, exec.Histories, nil, exec.NumOps())
		return
	}
	// The dense table turns the per-op address lookup of both passes
	// into a slice index. Slots are set for the group's addresses only
	// and cleared the same way, so a group costs O(addresses) table
	// maintenance regardless of batchSlotMax.
	if dense {
		if bs.gSlot == nil {
			bs.gSlot = make([]int32, batchSlotMax)
		}
		for idx, addr := range bs.gAddrs {
			bs.gSlot[addr] = int32(idx) + 1
		}
		defer func() {
			for _, addr := range bs.gAddrs {
				bs.gSlot[addr] = 0
			}
		}()
	}
	np := len(exec.Histories)

	// Pass 1: count projected ops per (address, process).
	bs.gCount = growSlice(bs.gCount, 2*na*np)
	counts, cursors := bs.gCount[:na*np], bs.gCount[na*np:]
	clear(counts)
	total := 0
	for p, h := range exec.Histories {
		if dense {
			slot := bs.gSlot
			for _, o := range h {
				if !o.IsMemory() {
					continue
				}
				if a := o.Addr; a >= 0 && a < batchSlotMax && slot[a] != 0 {
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
			if a, ok := bs.gAddrIdx[o.Addr]; ok {
				counts[a*np+p]++
				total++
			}
		}
	}

	// Carve the per-(address, process) sub-histories and back-maps out
	// of two flat backing arrays, recording each slot's start cursor.
	bs.gOps = growSlice(bs.gOps, total)
	bs.gBack = growSlice(bs.gBack, total)
	bs.gHist = growSlice(bs.gHist, na*np)
	bs.gBackHdr = growSlice(bs.gBackHdr, na*np)
	off := 0
	for s := range counts {
		n := counts[s]
		bs.gHist[s] = memory.History(bs.gOps[off : off+n : off+n])
		bs.gBackHdr[s] = bs.gBack[off : off+n : off+n]
		cursors[s] = off
		off += n
	}

	// Pass 2: fill.
	for p, h := range exec.Histories {
		if dense {
			slot := bs.gSlot
			for i, o := range h {
				if !o.IsMemory() {
					continue
				}
				a := o.Addr
				if a < 0 || a >= batchSlotMax || slot[a] == 0 {
					continue
				}
				s := int(slot[a]-1)*np + p
				c := cursors[s]
				bs.gOps[c] = o
				bs.gBack[c] = memory.Ref{Proc: p, Index: i}
				cursors[s] = c + 1
			}
			continue
		}
		for i, o := range h {
			if !o.IsMemory() {
				continue
			}
			a, ok := bs.gAddrIdx[o.Addr]
			if !ok {
				continue
			}
			s := a*np + p
			c := cursors[s]
			bs.gOps[c] = o
			bs.gBack[c] = memory.Ref{Proc: p, Index: i}
			cursors[s] = c + 1
		}
	}

	for a := range bs.gAddrs {
		nops := 0
		for s := a * np; s < (a+1)*np; s++ {
			nops += counts[s]
		}
		bs.assemble(exec, a, bs.gHist[a*np:(a+1)*np], bs.gBackHdr[a*np:(a+1)*np], nops)
	}
}

// assemble fills instance a of the group. gInit/gFinal are sized before
// any pointer into them is taken, so the pointers stay valid for the
// group.
func (bs *batchScratch) assemble(exec *memory.Execution, a int, hist []memory.History, back [][]memory.Ref, nops int) {
	addr := bs.gAddrs[a]
	bs.gInsts[a] = instance{addr: addr, hist: hist, backIdx: back, nops: nops}
	if d, ok := exec.Initial[addr]; ok {
		bs.gInit[a] = d
		bs.gInsts[a].init = &bs.gInit[a]
	}
	if d, ok := exec.Final[addr]; ok {
		bs.gFinal[a] = d
		bs.gInsts[a].final = &bs.gFinal[a]
	}
}
