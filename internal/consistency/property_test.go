package consistency

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"memverify/internal/memory"
)

// Property: SC implies per-address coherence (the fundamental containment
// of §6: every consistency model the paper considers implies coherence).
func TestSCImpliesCoherence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		exec := randomMultiAddress(rng)
		sc, err := NewVerifier(SC).Verify(context.Background(), exec)
		if err != nil {
			return false
		}
		if !sc.Consistent {
			return true
		}
		coh, err := NewVerifier(CoherenceOnly).Verify(context.Background(), exec)
		if err != nil {
			return false
		}
		return coh.Consistent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// Property: address renaming invariance — permuting address identities
// preserves every model verdict.
func TestModelAddressRenamingInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		exec := randomMultiAddress(rng)
		rename := func(a memory.Addr) memory.Addr { return a*3 + 17 }
		mapped := &memory.Execution{Histories: make([]memory.History, len(exec.Histories))}
		for p, h := range exec.Histories {
			for _, o := range h {
				if o.IsMemory() {
					o.Addr = rename(o.Addr)
				}
				mapped.Histories[p] = append(mapped.Histories[p], o)
			}
		}
		for a, v := range exec.Initial {
			mapped.SetInitial(rename(a), v)
		}
		for a, v := range exec.Final {
			mapped.SetFinal(rename(a), v)
		}
		for _, m := range []Model{SC, TSO, PSO, CoherenceOnly} {
			a, err := NewVerifier(m).Verify(context.Background(), exec)
			if err != nil {
				return false
			}
			b, err := NewVerifier(m).Verify(context.Background(), mapped)
			if err != nil {
				return false
			}
			if a.Consistent != b.Consistent {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: inserting fences can only shrink the set of accepted TSO/PSO
// executions — an execution rejected without fences stays rejected with
// them... the useful direction is the converse: an execution ACCEPTED
// with a fence inserted is also accepted without it (fences only
// constrain).
func TestFenceMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		exec := randomMultiAddress(rng)
		p := rng.Intn(len(exec.Histories))
		if len(exec.Histories[p]) == 0 {
			return true
		}
		at := rng.Intn(len(exec.Histories[p]) + 1)
		fenced := exec.Clone()
		h := fenced.Histories[p]
		fenced.Histories[p] = append(append(append(memory.History{}, h[:at]...), memory.Bar()), h[at:]...)
		for _, m := range []Model{TSO, PSO} {
			withFence, err := NewVerifier(m).Verify(context.Background(), fenced)
			if err != nil {
				return false
			}
			if !withFence.Consistent {
				continue
			}
			without, err := NewVerifier(m).Verify(context.Background(), exec)
			if err != nil {
				return false
			}
			if !without.Consistent {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: VSC certificates validate and contain every memory op.
func TestVSCCertificateWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		exec := randomMultiAddress(rng)
		res, err := NewVerifier(SC).Verify(context.Background(), exec)
		if err != nil {
			return false
		}
		if !res.Consistent {
			return true
		}
		return memory.CheckSC(exec, res.Schedule) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}
