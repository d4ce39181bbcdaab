package memory

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// ref is a test helper for building schedules tersely.
func ref(p, i int) Ref { return Ref{Proc: p, Index: i} }

func TestCheckCoherentAcceptsValidSchedule(t *testing.T) {
	// P0: W(1) R(2)   P1: W(2)
	e := NewExecution(
		History{W(0, 1), R(0, 2)},
		History{W(0, 2)},
	)
	s := Schedule{ref(0, 0), ref(1, 0), ref(0, 1)}
	if err := CheckCoherent(e, 0, s); err != nil {
		t.Errorf("valid coherent schedule rejected: %v", err)
	}
}

func TestCheckCoherentRejectsWrongValue(t *testing.T) {
	e := NewExecution(
		History{W(0, 1), R(0, 2)},
		History{W(0, 2)},
	)
	// Schedule the read right after W(1): it returns 2, mismatch.
	s := Schedule{ref(0, 0), ref(0, 1), ref(1, 0)}
	if err := CheckCoherent(e, 0, s); err == nil {
		t.Error("incoherent schedule accepted")
	}
}

func TestCheckCoherentInitialValue(t *testing.T) {
	e := NewExecution(
		History{R(0, 5), W(0, 1)},
	).SetInitial(0, 5)
	if err := CheckCoherent(e, 0, Schedule{ref(0, 0), ref(0, 1)}); err != nil {
		t.Errorf("read of initial value rejected: %v", err)
	}

	bad := NewExecution(
		History{R(0, 6), W(0, 1)},
	).SetInitial(0, 5)
	if err := CheckCoherent(bad, 0, Schedule{ref(0, 0), ref(0, 1)}); err == nil {
		t.Error("read disagreeing with initial value accepted")
	}
}

func TestCheckCoherentUnboundInitialBinds(t *testing.T) {
	// No declared initial value: the first pre-write read binds it, and a
	// second pre-write read must agree.
	e := NewExecution(
		History{R(0, 7)},
		History{R(0, 7)},
	)
	if err := CheckCoherent(e, 0, Schedule{ref(0, 0), ref(1, 0)}); err != nil {
		t.Errorf("consistent pre-write reads rejected: %v", err)
	}
	disagree := NewExecution(
		History{R(0, 7)},
		History{R(0, 8)},
	)
	if err := CheckCoherent(disagree, 0, Schedule{ref(0, 0), ref(1, 0)}); err == nil {
		t.Error("disagreeing pre-write reads accepted without any write")
	}
}

func TestCheckCoherentFinalValue(t *testing.T) {
	e := NewExecution(
		History{W(0, 1), W(0, 2)},
	).SetFinal(0, 2)
	if err := CheckCoherent(e, 0, Schedule{ref(0, 0), ref(0, 1)}); err != nil {
		t.Errorf("schedule ending on final value rejected: %v", err)
	}

	bad := NewExecution(
		History{W(0, 2), W(0, 1)},
	).SetFinal(0, 2)
	if err := CheckCoherent(bad, 0, Schedule{ref(0, 0), ref(0, 1)}); err == nil {
		t.Error("schedule whose last write is not the final value accepted")
	}
}

func TestCheckCoherentFinalWithoutWrites(t *testing.T) {
	e := NewExecution(
		History{R(0, 3)},
	).SetInitial(0, 3).SetFinal(0, 3)
	if err := CheckCoherent(e, 0, Schedule{ref(0, 0)}); err != nil {
		t.Errorf("write-free schedule with matching initial/final rejected: %v", err)
	}
	bad := NewExecution(
		History{R(0, 3)},
	).SetInitial(0, 3).SetFinal(0, 4)
	if err := CheckCoherent(bad, 0, Schedule{ref(0, 0)}); err == nil {
		t.Error("write-free schedule with mismatched final value accepted")
	}
}

func TestCheckCoherentProgramOrder(t *testing.T) {
	e := NewExecution(
		History{W(0, 1), W(0, 2)},
	)
	s := Schedule{ref(0, 1), ref(0, 0)}
	if err := CheckCoherent(e, 0, s); err == nil {
		t.Error("program-order violation accepted")
	}
}

func TestCheckCoherentCompleteness(t *testing.T) {
	e := NewExecution(
		History{W(0, 1), R(0, 1)},
	)
	if err := CheckCoherent(e, 0, Schedule{ref(0, 0)}); err == nil {
		t.Error("incomplete schedule accepted")
	}
	if err := CheckCoherent(e, 0, Schedule{ref(0, 0), ref(0, 0), ref(0, 1)}); err == nil {
		t.Error("duplicate operation accepted")
	}
	if err := CheckCoherent(e, 0, Schedule{ref(0, 0), ref(0, 1), ref(5, 0)}); err == nil {
		t.Error("out-of-range reference accepted")
	}
}

func TestCheckCoherentIgnoresOtherAddresses(t *testing.T) {
	e := NewExecution(
		History{W(0, 1), W(1, 9), R(0, 1)},
	)
	// Address 0 schedule must not include the W(1,9) op.
	if err := CheckCoherent(e, 0, Schedule{ref(0, 0), ref(0, 2)}); err != nil {
		t.Errorf("per-address schedule rejected: %v", err)
	}
	if err := CheckCoherent(e, 0, Schedule{ref(0, 0), ref(0, 1), ref(0, 2)}); err == nil {
		t.Error("schedule containing another address's op accepted")
	}
}

func TestCheckCoherentRMW(t *testing.T) {
	e := NewExecution(
		History{RW(0, 0, 1)},
		History{RW(0, 1, 2)},
	).SetInitial(0, 0)
	if err := CheckCoherent(e, 0, Schedule{ref(0, 0), ref(1, 0)}); err != nil {
		t.Errorf("valid RMW chain rejected: %v", err)
	}
	if err := CheckCoherent(e, 0, Schedule{ref(1, 0), ref(0, 0)}); err == nil {
		t.Error("broken RMW chain accepted")
	}
}

func TestCheckSCAcceptsValidSchedule(t *testing.T) {
	// Classic message passing, SC outcome.
	e := NewExecution(
		History{W(0, 1), W(1, 1)},
		History{R(1, 1), R(0, 1)},
	).SetInitial(0, 0).SetInitial(1, 0)
	s := Schedule{ref(0, 0), ref(0, 1), ref(1, 0), ref(1, 1)}
	if err := CheckSC(e, s); err != nil {
		t.Errorf("valid SC schedule rejected: %v", err)
	}
}

func TestCheckSCRejectsWrongValue(t *testing.T) {
	e := NewExecution(
		History{W(0, 1), W(1, 1)},
		History{R(1, 1), R(0, 0)},
	).SetInitial(0, 0).SetInitial(1, 0)
	// R(0,0) after W(0,1): 0 != 1 under every interleaving consistent
	// with this order; this particular schedule must be rejected.
	s := Schedule{ref(0, 0), ref(0, 1), ref(1, 0), ref(1, 1)}
	if err := CheckSC(e, s); err == nil {
		t.Error("non-SC schedule accepted")
	}
}

func TestCheckSCTracksAddressesIndependently(t *testing.T) {
	e := NewExecution(
		History{W(0, 1), W(1, 2), R(0, 1), R(1, 2)},
	)
	s := Schedule{ref(0, 0), ref(0, 1), ref(0, 2), ref(0, 3)}
	if err := CheckSC(e, s); err != nil {
		t.Errorf("multi-address schedule rejected: %v", err)
	}
}

func TestCheckSCSyncOpsOptional(t *testing.T) {
	e := NewExecution(
		History{Acq(), W(0, 1), Rel()},
		History{R(0, 1)},
	)
	// Schedule omitting the sync ops is fine.
	if err := CheckSC(e, Schedule{ref(0, 1), ref(1, 0)}); err != nil {
		t.Errorf("schedule without sync ops rejected: %v", err)
	}
	// Including them is fine too.
	full := Schedule{ref(0, 0), ref(0, 1), ref(0, 2), ref(1, 0)}
	if err := CheckSC(e, full); err != nil {
		t.Errorf("schedule with sync ops rejected: %v", err)
	}
	// But a memory op may not be omitted.
	if err := CheckSC(e, Schedule{ref(0, 1)}); err == nil {
		t.Error("schedule missing a memory op accepted")
	}
	// And sync ops must still respect program order.
	bad := Schedule{ref(0, 2), ref(0, 1), ref(0, 0), ref(1, 0)}
	if err := CheckSC(e, bad); err == nil {
		t.Error("sync ops violating program order accepted")
	}
}

func TestCheckSCFinalValues(t *testing.T) {
	e := NewExecution(
		History{W(0, 1)},
		History{W(0, 2)},
	).SetFinal(0, 2)
	if err := CheckSC(e, Schedule{ref(0, 0), ref(1, 0)}); err != nil {
		t.Errorf("schedule ending on final value rejected: %v", err)
	}
	if err := CheckSC(e, Schedule{ref(1, 0), ref(0, 0)}); err == nil {
		t.Error("schedule ending on non-final value accepted")
	}
}

func TestScheduleFormat(t *testing.T) {
	e := NewExecution(History{W(0, 1), R(0, 1)})
	s := Schedule{ref(0, 0), ref(0, 1)}
	got := s.Format(e)
	if !strings.Contains(got, "W(0, 1)") || !strings.Contains(got, "->") {
		t.Errorf("Format = %q", got)
	}
}

func TestCheckSCUnboundInitial(t *testing.T) {
	// No initial values: the first read of each address binds it.
	e := NewExecution(
		History{R(0, 42), R(0, 42), W(0, 1), R(0, 1)},
	)
	s := Schedule{ref(0, 0), ref(0, 1), ref(0, 2), ref(0, 3)}
	if err := CheckSC(e, s); err != nil {
		t.Errorf("binding initial read rejected: %v", err)
	}
}

// refCheckCoverage is the map-based coverage check that the dense
// checkCoverage replaced, kept as the reference implementation for
// TestCoverageMatchesMapReference.
func refCheckCoverage(exec *Execution, s Schedule, allowed, required map[Ref]bool) error {
	seen := make(map[Ref]bool, len(s))
	lastIndex := make(map[int]int)
	for pos, r := range s {
		if r.Proc < 0 || r.Proc >= len(exec.Histories) ||
			r.Index < 0 || r.Index >= len(exec.Histories[r.Proc]) {
			return fmt.Errorf("schedule[%d]: reference %s out of range", pos, r)
		}
		if !allowed[r] {
			return fmt.Errorf("schedule[%d]: operation %s does not belong to this instance", pos, r)
		}
		if seen[r] {
			return fmt.Errorf("schedule[%d]: operation %s scheduled twice", pos, r)
		}
		seen[r] = true
		if last, ok := lastIndex[r.Proc]; ok && r.Index <= last {
			return fmt.Errorf("schedule[%d]: %s violates program order", pos, r)
		}
		lastIndex[r.Proc] = r.Index
	}
	for r := range required {
		if !seen[r] {
			return fmt.Errorf("schedule is missing operation %s", r)
		}
	}
	return nil
}

// coverageKind classifies a checker error by the rule it reports: one of
// the coverage rules, "value" for a read/final-value mismatch, or "ok".
func coverageKind(err error) string {
	if err == nil {
		return "ok"
	}
	for _, k := range []string{"out of range", "does not belong", "scheduled twice", "violates program order", "is missing operation"} {
		if strings.Contains(err.Error(), k) {
			return k
		}
	}
	return "value"
}

// mutateSchedule applies one random mutation to s: swap two entries,
// drop one, duplicate one, insert a ref outside the instance (foreign,
// when exec has one) or insert an out-of-range ref. It returns the
// mutated copy and the mutation's name.
func mutateSchedule(rng *rand.Rand, exec *Execution, s Schedule, foreign []Ref) (Schedule, string) {
	out := append(Schedule(nil), s...)
	insert := func(r Ref) {
		at := rng.Intn(len(out) + 1)
		out = append(out[:at], append(Schedule{r}, out[at:]...)...)
	}
	switch kind := rng.Intn(6); {
	case kind == 0 && len(out) >= 2:
		i, j := rng.Intn(len(out)), rng.Intn(len(out))
		out[i], out[j] = out[j], out[i]
		return out, "swap"
	case kind == 1 && len(out) >= 1:
		i := rng.Intn(len(out))
		return append(out[:i], out[i+1:]...), "drop"
	case kind == 2 && len(out) >= 1:
		insert(out[rng.Intn(len(out))])
		return out, "duplicate"
	case kind == 3 && len(foreign) > 0:
		insert(foreign[rng.Intn(len(foreign))])
		return out, "foreign"
	case kind == 4:
		np := len(exec.Histories)
		bad := []Ref{{Proc: -1}, {Proc: np}, {Index: -1}}
		if np > 0 {
			p := rng.Intn(np)
			bad = append(bad, Ref{Proc: p, Index: len(exec.Histories[p])})
		}
		insert(bad[rng.Intn(len(bad))])
		return out, "out-of-range"
	}
	return out, "none"
}

// Differential test: the dense CheckCoherent and CheckSC agree with the
// map-based reference coverage check on accept/reject and on the kind of
// error, over randomly mutated program-order interleavings.
func TestCoverageMatchesMapReference(t *testing.T) {
	kinds := map[string]int{}
	check := func(seed int64, what string, got, ref error) {
		t.Helper()
		want := coverageKind(ref)
		if ref == nil {
			// Coverage holds; the dense checker may still reject a value.
			if k := coverageKind(got); k != "ok" && k != "value" {
				t.Fatalf("seed %d %s: reference accepts coverage, dense checker says %v", seed, what, got)
			}
			return
		}
		kinds[want]++
		if k := coverageKind(got); k != want {
			t.Fatalf("seed %d %s: dense checker error %q (%s), reference %q (%s)", seed, what, got, k, ref, want)
		}
	}
	for seed := int64(0); seed < 3000; seed++ {
		e := randomExec(seed)
		rng := rand.New(rand.NewSource(seed))
		for _, a := range e.Addresses() {
			in := map[Ref]bool{}
			var foreign []Ref
			for _, r := range e.Refs() {
				if o := e.Op(r); o.IsMemory() && o.Addr == a {
					in[r] = true
				} else {
					foreign = append(foreign, r)
				}
			}
			s, mut := mutateSchedule(rng, e, interleave(rng, e, in), foreign)
			check(seed, fmt.Sprintf("CheckCoherent(addr %d, %s)", a, mut), CheckCoherent(e, a, s), refCheckCoverage(e, s, in, in))
		}
		all, mem := map[Ref]bool{}, map[Ref]bool{}
		for _, r := range e.Refs() {
			all[r] = true
			if e.Op(r).IsMemory() {
				mem[r] = true
			}
		}
		s, mut := mutateSchedule(rng, e, interleave(rng, e, all), nil)
		check(seed, "CheckSC("+mut+")", CheckSC(e, s), refCheckCoverage(e, s, all, mem))
	}
	for _, k := range []string{"out of range", "does not belong", "scheduled twice", "violates program order", "is missing operation"} {
		if kinds[k] == 0 {
			t.Errorf("no mutated schedule exercised the %q rule", k)
		}
	}
}

// interleave returns a random program-order interleaving of the refs in
// keep.
func interleave(rng *rand.Rand, e *Execution, keep map[Ref]bool) Schedule {
	var queues [][]Ref
	for p, h := range e.Histories {
		var q []Ref
		for i := range h {
			if r := (Ref{Proc: p, Index: i}); keep[r] {
				q = append(q, r)
			}
		}
		if len(q) > 0 {
			queues = append(queues, q)
		}
	}
	var s Schedule
	for len(queues) > 0 {
		k := rng.Intn(len(queues))
		s = append(s, queues[k][0])
		if queues[k] = queues[k][1:]; len(queues[k]) == 0 {
			queues = append(queues[:k], queues[k+1:]...)
		}
	}
	return s
}
