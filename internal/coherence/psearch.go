package coherence

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"memverify/internal/memory"
	"memverify/internal/obs"
	"memverify/internal/solver"
)

// Parallel exact search (Options.ParallelSearch): one hard instance,
// many workers. The paper's per-address decomposition parallelizes
// across addresses, but a single hard address still forces one
// exponential search — this file splits that search itself.
//
// Shape: the coordinator expands the DFS frontier breadth-first to a
// shallow depth, turning the root of the search tree into independent
// subtree tasks (each a concrete state plus the schedule prefix that
// reaches it). Tasks are distributed round-robin across per-worker
// deques; each worker pops its own deque LIFO (deepest first, warm
// caches) and steals from the head of a victim's deque when its own
// runs dry (oldest first — the shallowest, and so statistically
// largest, stolen subtree). A worker grinding a large subtree while
// others starve donates the un-iterated sibling candidates of its
// current frame as fresh tasks, so a single monster subtree keeps
// splitting until everyone is busy.
//
// What is shared, and why it stays sound:
//
//   - The memo table (cmemo, cmemo.go): a subtree refuted by any worker
//     prunes all workers. The claim-skip protocol is sound because
//     "incoherent" is declared only when every task has completed; see
//     cmemo.go.
//   - The budget (solver.SharedBudget): every worker charges one atomic
//     state counter, so MaxStates and the reported Stats.States are
//     exact — the merged per-worker stats equal the shared counter.
//   - First verdict wins: a worker that completes a schedule records it
//     and cancels the siblings through the shared context; they notice
//     at their next amortized budget poll. A certificate found by any
//     worker is valid regardless of what the others were doing, and a
//     budget trip racing a verdict resolves in the verdict's favor —
//     also sound, the certificate stands on its own.
//
// Panic isolation: each worker recovers its own panics into a
// *solver.ErrWorkerPanic; the coordinator re-raises the first one after
// the team drains, so a parallel search panics exactly where the
// sequential one would, and the guards above it keep their existing
// behavior.
//
// Checkpointing is sequential-only by design: a snapshot of a
// mid-flight multi-worker memo is not resumable state (claims are not
// refutations). searchScratch.search therefore falls back to the
// sequential path whenever a CheckpointSink is configured, and likewise
// when memoization is disabled. Every program the kernel runs — VMC's
// exact rung and SearchSC alike — can take the team.

const (
	// psearchMinOps: instances below this size stay sequential — the
	// team setup costs more than the whole solve.
	psearchMinOps = 4
	// psearchFanout is the initial frontier-split target per worker.
	// Oversplitting ~8× smooths load imbalance between subtrees of very
	// different sizes without re-exploring much shallow state.
	psearchFanout = 8
	// psearchExpandFactor bounds the coordinator's breadth-first
	// expansion at this multiple of the task target, so a near-chain
	// prefix (every state one candidate) cannot make the coordinator
	// solve the instance alone.
	psearchExpandFactor = 64
	// psearchDonateMinOps: a worker only donates sibling subtrees when
	// at least this many operations remain unscheduled — splitting the
	// last few levels creates more task churn than work.
	psearchDonateMinOps = 8
)

// pTask is one independent subtree: a concrete search state (positions
// and value slots) and the schedule prefix that reaches it (program
// refs, needed so the winning worker's certificate is complete).
type pTask struct {
	pos    []int
	val    []uint32
	prefix []memory.Ref
}

// task captures the searcher's current state as a task.
func (s *searcher) task() pTask {
	return pTask{
		pos:    append([]int(nil), s.pos...),
		val:    append([]uint32(nil), s.val...),
		prefix: append([]memory.Ref(nil), s.schedule...),
	}
}

// load points the searcher at a task's state.
func (s *searcher) load(t pTask) {
	copy(s.pos, t.pos)
	copy(s.val, t.val)
	s.schedule = append(s.schedule[:0], t.prefix...)
	s.candBuf = s.candBuf[:0]
}

// pWin carries the first complete coherent schedule found.
type pWin struct {
	schedule []memory.Ref
}

// pShared is the state shared by the coordinator and workers of one
// parallel search.
type pShared struct {
	pg     *program
	opts   *Options
	memo   *cmemo
	budget *solver.SharedBudget
	cancel context.CancelFunc

	// mu guards the deques and the outstanding-task count; cond wakes
	// starving workers on donations and on the final completion.
	// Work transfers happen at task granularity (each task is a whole
	// subtree search), so this lock is cold.
	mu          sync.Mutex
	cond        *sync.Cond
	deques      [][]pTask
	outstanding int
	stop        bool

	winner      atomic.Pointer[pWin]
	panicked    atomic.Pointer[solver.ErrWorkerPanic]
	idle        atomic.Int64 // workers currently hunting for work (donation hint)
	workersUsed atomic.Int64 // workers that explored at least one task
}

// submit appends tasks to worker w's deque and wakes starving workers.
func (ps *pShared) submit(w int, ts []pTask) {
	ps.mu.Lock()
	ps.outstanding += len(ts)
	ps.deques[w] = append(ps.deques[w], ts...)
	ps.cond.Broadcast()
	ps.mu.Unlock()
}

// next returns the next task for worker w: its own deque's tail, then a
// steal from the head of another worker's deque, then a wait for
// donations. ok=false means the search is over (verdict, abort, or all
// tasks drained).
func (ps *pShared) next(w int) (pTask, bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for {
		if ps.stop {
			return pTask{}, false
		}
		if d := ps.deques[w]; len(d) > 0 {
			t := d[len(d)-1]
			ps.deques[w] = d[:len(d)-1]
			return t, true
		}
		for i := 1; i < len(ps.deques); i++ {
			v := (w + i) % len(ps.deques)
			if d := ps.deques[v]; len(d) > 0 {
				t := d[0]
				ps.deques[v] = d[1:]
				return t, true
			}
		}
		if ps.outstanding == 0 {
			return pTask{}, false
		}
		ps.idle.Add(1)
		ps.cond.Wait()
		ps.idle.Add(-1)
	}
}

// finish marks one task complete; the last completion wakes everyone so
// the team can agree the search is exhausted.
func (ps *pShared) finish() {
	ps.mu.Lock()
	ps.outstanding--
	if ps.outstanding == 0 {
		ps.cond.Broadcast()
	}
	ps.mu.Unlock()
}

// halt ends the search (first verdict, budget trip, or worker panic):
// cancels the shared context so grinding workers notice at their next
// budget poll, and wakes every waiter. Idempotent.
func (ps *pShared) halt() {
	ps.cancel()
	ps.mu.Lock()
	ps.stop = true
	ps.cond.Broadcast()
	ps.mu.Unlock()
}

// drained reports whether every task completed (the precondition for an
// incoherent verdict).
func (ps *pShared) drained() bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.outstanding == 0
}

// pworker is one search worker: a full searcher (its own position
// vector, value slots, schedule, candidate buffers, stats) plus the
// shared state. The embedded searcher's own budget and memo stay unused
// — the worker charges the shared budget and consults the shared memo.
type pworker struct {
	searcher
	ps *pShared
	w  int
}

// donate packages the candidates candBuf[from:end) of the current frame
// as tasks on the worker's own deque (thieves steal from the other
// end). Called only when some worker is starving.
func (pw *pworker) donate(from, end int) {
	s := &pw.searcher
	ts := make([]pTask, 0, end-from)
	for i := from; i < end; i++ {
		h := s.candBuf[i]
		prev := s.apply(h)
		ts = append(ts, s.task())
		s.undo(h, prev)
	}
	pw.ps.submit(pw.w, ts)
}

// pdfs is the worker-side dfs: identical exploration order and
// accounting to (*searcher).dfs, with the memo claim-skip protocol,
// the shared atomic budget, and sibling donation in place of the
// sequential memo/budget/checkpoint hooks.
func (pw *pworker) pdfs() bool {
	s := &pw.searcher
	eager := s.scheduleEagerReads()
	d := len(s.schedule)
	if d > s.stats.PeakDepth {
		s.stats.PeakDepth = d
	}
	if d == s.pg.nops {
		if s.finalOK() {
			return true
		}
		s.undoEagerReads(eager)
		return false
	}

	key := s.keyAt(d)
	s.pack(key)
	if st := pw.ps.memo.claim(key); st != claimed {
		// Failed: refuted by some worker. Busy: being explored by some
		// worker whose task must complete before an incoherent verdict
		// can be declared — either way this subtree needs no second
		// visit.
		s.stats.MemoHits++
		s.undoEagerReads(eager)
		return false
	}
	s.stats.MemoMisses++

	s.stats.States++
	s.stats.RecordDepth(d)
	if e := pw.ps.budget.Charge(s.stats.States); e != nil {
		s.abort = e
		s.undoEagerReads(eager)
		return false
	}
	if s.stats.States&(solver.FlushInterval-1) == 0 && s.On {
		s.Poll(&s.stats, d)
	}

	base, end := s.appendCandidates()
	s.stats.Branches += end - base
	donated := false
	if end-base >= 2 && pw.ps.idle.Load() > 0 &&
		s.pg.nops-d >= psearchDonateMinOps {
		pw.donate(base+1, end)
		donated = true
		end = base + 1
	}
	for i := base; i < end; i++ {
		h := s.candBuf[i]
		prev := s.apply(h)
		if pw.pdfs() {
			return true
		}
		s.undo(h, prev)
		if s.abort != nil {
			s.candBuf = s.candBuf[:base]
			s.undoEagerReads(eager)
			return false
		}
	}
	s.candBuf = s.candBuf[:base]

	if !donated {
		// Fully explored with no coherent completion: resolve the claim.
		// A donated frame's children are owned by other tasks, so its
		// refutation is unknown here; leaving the claim unresolved loses
		// one memo entry, never soundness.
		pw.ps.memo.markFailed(key)
	}
	s.undoEagerReads(eager)
	return false
}

// run is worker w's main loop: drain tasks until a verdict, an abort,
// or exhaustion. Stats accumulate across tasks into statsOut (read by
// the coordinator only after the WaitGroup barrier).
func (ps *pShared) run(ctx context.Context, w int, statsOut *solver.Stats) {
	defer func() {
		if r := recover(); r != nil {
			ps.panicked.CompareAndSwap(nil, &solver.ErrWorkerPanic{
				Label: "psearch-worker",
				Value: r,
				Stack: debug.Stack(),
			})
			ps.halt()
		}
	}()
	scratch := scratchPool.Get().(*searchScratch)
	pw := &pworker{ps: ps, w: w, searcher: scratch.s.fresh(ps.pg)}
	pw.opts, pw.Met = ps.opts, obs.SearchFrom(ctx)
	pw.On = pw.Met != nil
	defer func() {
		if pw.On {
			pw.Poll(&pw.stats, len(pw.schedule))
		}
		*statsOut = pw.stats
		scratch.s.keep(&pw.searcher)
		scratchPool.Put(scratch)
	}()

	first := true
	for {
		t, ok := ps.next(w)
		if !ok {
			return
		}
		if first {
			ps.workersUsed.Add(1)
			first = false
		}
		pw.load(t)
		if pw.pdfs() {
			win := &pWin{schedule: append([]memory.Ref(nil), pw.schedule...)}
			ps.winner.CompareAndSwap(nil, win)
			ps.halt()
			return
		}
		ps.finish()
		if pw.abort != nil {
			ps.halt()
			return
		}
	}
}

// expandFrontier grows the search frontier breadth-first until it holds
// about `target` independent subtree tasks. It follows dfs semantics
// exactly (eager reads, memo claims, budget charges), so states visited
// here are counted once and never re-expanded by workers. Outcomes:
// a complete schedule found during expansion (win), a budget abort, or
// the task list (possibly empty — the whole tree was explored, i.e.
// incoherent).
func expandFrontier(ps *pShared, target int, stats *solver.Stats) (tasks []pTask, win []memory.Ref, abort *solver.ErrBudgetExceeded) {
	scratch := scratchPool.Get().(*searchScratch)
	fresh := scratch.s.fresh(ps.pg)
	es := &fresh
	es.opts = ps.opts
	defer func() {
		scratch.s.keep(es)
		scratchPool.Put(scratch)
	}()

	queue := []pTask{es.task()}
	for pops := 0; len(queue) > 0 && len(queue) < target && pops < psearchExpandFactor*target; pops++ {
		t := queue[0]
		queue = queue[1:]
		es.load(t)

		es.scheduleEagerReads()
		d := len(es.schedule)
		if d > es.stats.PeakDepth {
			es.stats.PeakDepth = d
		}
		if d == ps.pg.nops {
			if es.finalOK() {
				win = append([]memory.Ref(nil), es.schedule...)
				break
			}
			continue
		}
		key := es.keyAt(d)
		es.pack(key)
		if st := ps.memo.claim(key); st != claimed {
			// Duplicate frontier state (two parents enqueued it) or a
			// resume-seeded refutation: prune.
			es.stats.MemoHits++
			continue
		}
		es.stats.MemoMisses++
		es.stats.States++
		es.stats.RecordDepth(d)
		if abort = ps.budget.Charge(es.stats.States); abort != nil {
			break
		}
		base, end := es.appendCandidates()
		es.stats.Branches += end - base
		if end == base {
			// Dead end: enabled nothing, scheduled nothing — a genuine
			// refutation, safe to memoize.
			ps.memo.markFailed(key)
			continue
		}
		for i := base; i < end; i++ {
			h := es.candBuf[i]
			prev := es.apply(h)
			queue = append(queue, es.task())
			es.undo(h, prev)
		}
		es.candBuf = es.candBuf[:base]
		// The expanded state stays claimed: its exploration is delegated
		// to the enqueued children, each tracked as an outstanding task,
		// so other paths reaching it skip it without loss.
	}
	*stats = es.stats
	return queue, win, abort
}

// psearchMemoPool recycles the sharded concurrent memo across parallel
// solves (the tables are the dominant allocation).
var psearchMemoPool = sync.Pool{New: func() any { return new(cmemo) }}

// searchParallel is the parallel counterpart of the sequential kernel:
// same contract, with the search fanned out across `workers` workers.
// Callers reach it through Options.ParallelSearch;
// searchScratch.search handles the gating and fallback.
func searchParallel(ctx context.Context, pg *program, opts *Options, workers int) (*Result, *solver.ErrBudgetExceeded) {
	start := time.Now()
	sb := solver.StartShared(ctx, opts)
	defer sb.Stop()
	wctx, cancel := context.WithCancel(sb.Context())
	defer cancel()

	memo := psearchMemoPool.Get().(*cmemo)
	memo.reset(pg.layout.Words())
	defer psearchMemoPool.Put(memo)

	ps := &pShared{
		pg:     pg,
		opts:   opts,
		memo:   memo,
		budget: sb,
		cancel: cancel,
		deques: make([][]pTask, workers),
	}
	ps.cond = sync.NewCond(&ps.mu)
	key := make([]uint64, pg.layout.Words())
	for _, k := range opts.ResumeMemoSeed() {
		if pg.parseStringKey(k, key) {
			memo.markFailed(key)
		}
	}

	sp := pg.beginSpan(ctx, obs.TracerFrom(ctx), pg.name.par)

	var expandStats solver.Stats
	tasks, win, abort := expandFrontier(ps, workers*psearchFanout, &expandStats)
	stats := expandStats

	finish := func(res *Result, err *solver.ErrBudgetExceeded) (*Result, *solver.ErrBudgetExceeded) {
		stats.Duration = time.Since(start)
		// Workers flush their own deltas; this covers the coordinator's
		// expansion phase.
		coord := solver.Probe{Met: obs.SearchFrom(ctx)}
		coord.Poll(&expandStats, expandStats.PeakDepth)
		switch {
		case err != nil:
			err.Stats = stats
			sp.End("budget: "+err.Reason.String(), int64(stats.States))
			return nil, err
		case res.Coherent:
			res.Stats = stats
			sp.End(pg.name.yes, int64(stats.States))
		default:
			res.Stats = stats
			sp.End(pg.name.no, int64(stats.States))
		}
		return res, nil
	}

	if abort != nil {
		cp := *abort
		return finish(nil, &cp)
	}
	if win != nil {
		return finish(&Result{
			Coherent:  true,
			Decided:   true,
			Schedule:  pg.inst.translate(win),
			Algorithm: pg.name.par,
		}, nil)
	}
	if len(tasks) == 0 {
		// The breadth-first expansion exhausted the whole tree.
		return finish(&Result{Coherent: false, Decided: true, Algorithm: pg.name.par}, nil)
	}

	for i, t := range tasks {
		w := i % workers
		ps.deques[w] = append(ps.deques[w], t)
	}
	ps.outstanding = len(tasks)

	// A dedicated pool sized to the team: every worker gets a slot
	// immediately, and the pool's guard/tracing brackets each worker.
	pool := solver.NewPool(workers)
	workerStats := make([]solver.Stats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		pool.Go(wctx,
			func() { defer wg.Done(); ps.run(wctx, w, &workerStats[w]) },
			func() { wg.Done() })
	}
	wg.Wait()

	for w := range workerStats {
		stats.Merge(workerStats[w])
	}
	stats.SearchWorkers = int(ps.workersUsed.Load())

	if wp := ps.panicked.Load(); wp != nil && ps.winner.Load() == nil {
		// Surface the panic exactly where a sequential search would
		// have: on the coordinator, for the caller's guards to catch.
		panic(wp)
	}
	if w := ps.winner.Load(); w != nil {
		return finish(&Result{
			Coherent:  true,
			Decided:   true,
			Schedule:  pg.inst.translate(w.schedule),
			Algorithm: pg.name.par,
		}, nil)
	}
	if be := ps.budget.Err(); be != nil {
		cp := *be
		return finish(nil, &cp)
	}
	if !ps.drained() {
		// Workers stopped without verdict, budget error, or panic —
		// the parent context was cancelled before the team could run.
		if e := solver.Interrupted(ctx); e != nil {
			cp := *e
			return finish(nil, &cp)
		}
		cp := solver.ErrBudgetExceeded{Reason: solver.Canceled, Cause: context.Canceled}
		return finish(nil, &cp)
	}
	return finish(&Result{Coherent: false, Decided: true, Algorithm: pg.name.par}, nil)
}
