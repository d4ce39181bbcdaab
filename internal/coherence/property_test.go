package coherence

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// Property: schedule-prefix closure. Any prefix of a coherent schedule
// is itself a witness for the sub-execution consisting of exactly its
// operations (note that truncating an ARBITRARY history is not safe —
// it can delete a write that another history's read observes — which is
// why the cut must follow a schedule).
func TestCoherenceSchedulePrefixClosure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		exec := randomInstance(rng)
		delete(exec.Final, 0)
		res, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), exec, 0)
		if err != nil || !res.Decided {
			return false
		}
		if !res.Coherent {
			return true // nothing to check
		}
		if len(res.Schedule) == 0 {
			return true
		}
		cut := rng.Intn(len(res.Schedule) + 1)
		// Build the sub-execution containing exactly the scheduled
		// prefix, preserving per-history order, and re-map the prefix
		// schedule to the new indices.
		keep := make(map[memory.Ref]bool, cut)
		for _, r := range res.Schedule[:cut] {
			keep[r] = true
		}
		sub := &memory.Execution{
			Histories: make([]memory.History, len(exec.Histories)),
			Initial:   exec.Initial,
		}
		remap := make(map[memory.Ref]memory.Ref, cut)
		for p, h := range exec.Histories {
			for i, o := range h {
				r := memory.Ref{Proc: p, Index: i}
				if keep[r] {
					remap[r] = memory.Ref{Proc: p, Index: len(sub.Histories[p])}
					sub.Histories[p] = append(sub.Histories[p], o)
				}
			}
		}
		prefix := make(memory.Schedule, cut)
		for i, r := range res.Schedule[:cut] {
			prefix[i] = remap[r]
		}
		return memory.CheckCoherent(sub, 0, prefix) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: history permutation invariance. Renaming processes cannot
// change the verdict (the problem is symmetric in the histories).
func TestCoherenceHistoryPermutationInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		exec := randomInstance(rng)
		res, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), exec, 0)
		if err != nil {
			return false
		}
		perm := rng.Perm(len(exec.Histories))
		shuffled := &memory.Execution{
			Histories: make([]memory.History, len(exec.Histories)),
			Initial:   exec.Initial,
			Final:     exec.Final,
		}
		for i, j := range perm {
			shuffled.Histories[j] = exec.Histories[i]
		}
		r2, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), shuffled, 0)
		if err != nil {
			return false
		}
		return res.Coherent == r2.Coherent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: value renaming invariance. Applying an injective renaming to
// every data value (including initial/final) preserves the verdict.
func TestCoherenceValueRenamingInvariance(t *testing.T) {
	rename := func(v memory.Value) memory.Value { return v*7 + 100 }
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		exec := randomInstance(rng)
		res, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), exec, 0)
		if err != nil {
			return false
		}
		mapped := exec.Clone()
		for p := range mapped.Histories {
			for i, o := range mapped.Histories[p] {
				if _, ok := o.Reads(); ok {
					o.Data = rename(o.Data)
				} else if o.Kind == memory.Write {
					o.Data = rename(o.Data)
				}
				if o.Kind == memory.ReadModifyWrite {
					o.Store = rename(o.Store)
				}
				mapped.Histories[p][i] = o
			}
		}
		if v, ok := mapped.Initial[0]; ok {
			mapped.Initial[0] = rename(v)
		}
		if v, ok := mapped.Final[0]; ok {
			mapped.Final[0] = rename(v)
		}
		r2, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), mapped, 0)
		if err != nil {
			return false
		}
		return res.Coherent == r2.Coherent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: appending W(v) followed by R(v) to any history of a
// final-value-free execution preserves coherence (the new pair schedules
// at the very end).
func TestCoherenceAppendWriteReadPair(t *testing.T) {
	f := func(seed int64, v int8) bool {
		rng := rand.New(rand.NewSource(seed))
		exec := randomInstance(rng)
		delete(exec.Final, 0)
		res, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), exec, 0)
		if err != nil || !res.Coherent {
			return err == nil
		}
		p := rng.Intn(len(exec.Histories))
		grown := exec.Clone()
		grown.Histories[p] = append(grown.Histories[p],
			memory.W(0, memory.Value(v)), memory.R(0, memory.Value(v)))
		r2, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), grown, 0)
		if err != nil {
			return false
		}
		return r2.Coherent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the certificate schedule length always equals the number of
// projected operations, and every certificate validates.
func TestCertificateWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		exec := randomInstance(rng)
		res, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), exec, 0)
		if err != nil {
			return false
		}
		if !res.Coherent {
			return len(res.Schedule) == 0
		}
		proj, _ := exec.Project(0)
		if len(res.Schedule) != proj.NumOps() {
			return false
		}
		return memory.CheckCoherent(exec, 0, res.Schedule) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
