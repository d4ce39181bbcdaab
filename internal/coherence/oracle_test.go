package coherence

import (
	"math/rand"

	"memverify/internal/memory"
)

// bruteForceCoherent is a test oracle: it enumerates every interleaving
// of the operations of exec at addr and checks each with
// memory.CheckCoherent. Exponential; only for tiny instances.
func bruteForceCoherent(exec *memory.Execution, addr memory.Addr) (bool, memory.Schedule) {
	proj, back := exec.Project(addr)
	pos := make([]int, len(proj.Histories))
	var sched memory.Schedule
	var try func() (bool, memory.Schedule)
	try = func() (bool, memory.Schedule) {
		done := true
		for h := range proj.Histories {
			if pos[h] < len(proj.Histories[h]) {
				done = false
				break
			}
		}
		if done {
			orig := make(memory.Schedule, len(sched))
			for i, r := range sched {
				orig[i] = back[r.Proc][r.Index]
			}
			if memory.CheckCoherent(exec, addr, orig) == nil {
				return true, orig
			}
			return false, nil
		}
		for h := range proj.Histories {
			if pos[h] >= len(proj.Histories[h]) {
				continue
			}
			sched = append(sched, memory.Ref{Proc: h, Index: pos[h]})
			pos[h]++
			if ok, s := try(); ok {
				return true, s
			}
			pos[h]--
			sched = sched[:len(sched)-1]
		}
		return false, nil
	}
	return try()
}

// randomInstance generates a small random single-address execution for
// cross-checking solvers against the brute-force oracle. Roughly half of
// the generated instances are coherent.
func randomInstance(rng *rand.Rand) *memory.Execution {
	nproc := 1 + rng.Intn(3)
	nvals := 1 + rng.Intn(3)
	exec := &memory.Execution{}
	for p := 0; p < nproc; p++ {
		nops := rng.Intn(4)
		var h memory.History
		for i := 0; i < nops; i++ {
			v := memory.Value(rng.Intn(nvals))
			switch rng.Intn(3) {
			case 0:
				h = append(h, memory.R(0, v))
			case 1:
				h = append(h, memory.W(0, v))
			default:
				h = append(h, memory.RW(0, v, memory.Value(rng.Intn(nvals))))
			}
		}
		exec.Histories = append(exec.Histories, h)
		_ = p
	}
	if rng.Intn(2) == 0 {
		exec.SetInitial(0, memory.Value(rng.Intn(nvals)))
	}
	if rng.Intn(4) == 0 {
		exec.SetFinal(0, memory.Value(rng.Intn(nvals)))
	}
	return exec
}

// randomCoherentTrace generates an execution that is coherent by
// construction: it simulates an atomic memory cell and logs each
// process's operations with the values actually observed. writeOrder
// receives the global order of writing operations.
func randomCoherentTrace(rng *rand.Rand, nproc, opsPerProc, nvals int) (*memory.Execution, []memory.Ref) {
	exec := &memory.Execution{Histories: make([]memory.History, nproc)}
	cur := memory.Value(rng.Intn(nvals))
	exec.SetInitial(0, cur)
	var order []memory.Ref
	remaining := make([]int, nproc)
	for p := range remaining {
		remaining[p] = opsPerProc
	}
	total := nproc * opsPerProc
	for done := 0; done < total; {
		p := rng.Intn(nproc)
		if remaining[p] == 0 {
			continue
		}
		remaining[p]--
		done++
		ref := memory.Ref{Proc: p, Index: len(exec.Histories[p])}
		switch rng.Intn(3) {
		case 0:
			exec.Histories[p] = append(exec.Histories[p], memory.R(0, cur))
		case 1:
			v := memory.Value(rng.Intn(nvals))
			exec.Histories[p] = append(exec.Histories[p], memory.W(0, v))
			cur = v
			order = append(order, ref)
		default:
			v := memory.Value(rng.Intn(nvals))
			exec.Histories[p] = append(exec.Histories[p], memory.RW(0, cur, v))
			cur = v
			order = append(order, ref)
		}
	}
	exec.SetFinal(0, cur)
	return exec, order
}
