package memory

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomExec builds a random execution from a seed.
func randomExec(seed int64) *Execution {
	rng := rand.New(rand.NewSource(seed))
	nproc := 1 + rng.Intn(4)
	naddr := 1 + rng.Intn(3)
	e := &Execution{}
	for p := 0; p < nproc; p++ {
		var h History
		for i := rng.Intn(6); i > 0; i-- {
			a := Addr(rng.Intn(naddr))
			v := Value(rng.Intn(4))
			switch rng.Intn(5) {
			case 0:
				h = append(h, R(a, v))
			case 1:
				h = append(h, W(a, v))
			case 2:
				h = append(h, RW(a, v, Value(rng.Intn(4))))
			case 3:
				h = append(h, Acq())
			default:
				h = append(h, Rel())
			}
		}
		e.Histories = append(e.Histories, h)
	}
	return e
}

// Property: projections partition the data-memory operations — the sum
// of per-address projection sizes equals the total count of memory ops.
func TestProjectPartitionsOps(t *testing.T) {
	f := func(seed int64) bool {
		e := randomExec(seed)
		total := 0
		for _, a := range e.Addresses() {
			proj, _ := e.Project(a)
			total += proj.NumOps()
		}
		return total == e.NumMemoryOps()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the back-mapping of a projection points at identical
// operations.
func TestProjectBackMappingFaithful(t *testing.T) {
	f := func(seed int64) bool {
		e := randomExec(seed)
		for _, a := range e.Addresses() {
			proj, back := e.Project(a)
			for p, h := range proj.Histories {
				for i := range h {
					orig := back[p][i]
					if e.Op(orig) != h[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Clone is observationally identical and disjoint in storage.
func TestClonePreservesEverything(t *testing.T) {
	f := func(seed int64) bool {
		e := randomExec(seed)
		e.SetInitial(0, 5).SetFinal(0, 7)
		c := e.Clone()
		if c.NumOps() != e.NumOps() || c.NumProcesses() != e.NumProcesses() {
			return false
		}
		for p := range e.Histories {
			for i := range e.Histories[p] {
				if c.Histories[p][i] != e.Histories[p][i] {
					return false
				}
			}
		}
		return c.Initial[0] == 5 && c.Final[0] == 7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: any permutation-with-duplicate of a valid schedule is
// rejected by checkCoverage (through CheckSC).
func TestCheckSCRejectsDuplicates(t *testing.T) {
	f := func(seed int64) bool {
		e := randomExec(seed)
		if e.NumOps() == 0 {
			return true
		}
		// Program-order schedule of everything.
		var s Schedule
		for p, h := range e.Histories {
			for i := range h {
				s = append(s, Ref{Proc: p, Index: i})
			}
		}
		// Duplicate one entry.
		rng := rand.New(rand.NewSource(seed))
		s = append(s, s[rng.Intn(len(s))])
		return CheckSC(e, s) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: schedules respect process renaming — relabeling the
// processes of an execution and its schedule consistently preserves the
// checker verdict.
func TestCheckCoherentProcessRenaming(t *testing.T) {
	f := func(seed int64) bool {
		e := randomExec(seed)
		var s Schedule
		// Program-order per process, round-robin interleave (may or may
		// not be coherent — the verdict just has to be stable).
		maxLen := 0
		for _, h := range e.Histories {
			if len(h) > maxLen {
				maxLen = len(h)
			}
		}
		for i := 0; i < maxLen; i++ {
			for p, h := range e.Histories {
				if i < len(h) && h[i].IsMemory() && h[i].Addr == 0 {
					s = append(s, Ref{Proc: p, Index: i})
				}
			}
		}
		before := CheckCoherent(e, 0, s) == nil

		// Reverse the process order.
		n := len(e.Histories)
		flip := &Execution{Histories: make([]History, n), Initial: e.Initial, Final: e.Final}
		for p := range e.Histories {
			flip.Histories[n-1-p] = e.Histories[p]
		}
		fs := make(Schedule, len(s))
		for i, r := range s {
			fs[i] = Ref{Proc: n - 1 - r.Proc, Index: r.Index}
		}
		after := CheckCoherent(flip, 0, fs) == nil
		return before == after
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
