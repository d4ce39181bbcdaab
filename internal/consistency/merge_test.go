package consistency

import (
	"context"
	"math/rand"
	"testing"

	"memverify/internal/coherence"
	"memverify/internal/memory"
)

func TestMergeSchedulesSimple(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.W(1, 1)},
		memory.History{memory.R(1, 1), memory.R(0, 1)},
	).SetInitial(0, 0).SetInitial(1, 0)
	schedules := map[memory.Addr]memory.Schedule{
		0: {{Proc: 0, Index: 0}, {Proc: 1, Index: 1}},
		1: {{Proc: 0, Index: 1}, {Proc: 1, Index: 0}},
	}
	res, err := MergeSchedules(exec, schedules)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Fatal("mergeable coherent schedules rejected")
	}
	if err := memory.CheckSC(exec, res.Schedule); err != nil {
		t.Errorf("merged schedule not SC: %v", err)
	}
}

func TestMergeSchedulesValidatesInput(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1)},
		memory.History{memory.R(0, 1)},
	).SetInitial(0, 0)
	// Missing schedule.
	if _, err := MergeSchedules(exec, nil); err == nil {
		t.Error("missing schedule accepted")
	}
	// Incoherent schedule.
	bad := map[memory.Addr]memory.Schedule{
		0: {{Proc: 1, Index: 0}, {Proc: 0, Index: 0}},
	}
	if _, err := MergeSchedules(exec, bad); err == nil {
		t.Error("incoherent schedule accepted")
	}
}

func TestMergeDetectsConflict(t *testing.T) {
	// Dekker: per-address coherent schedules exist, but any choice is
	// unmergeable (the execution is not SC).
	exec := dekkerExecution()
	rep, err := coherence.NewVerifier().Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	schedules := map[memory.Addr]memory.Schedule{}
	for a, r := range rep.Results() {
		if !r.Coherent {
			t.Fatal("Dekker should be coherent per address")
		}
		schedules[a] = r.Schedule
	}
	res, err := MergeSchedules(exec, schedules)
	if err != nil {
		t.Fatal(err)
	}
	if res.Consistent {
		t.Error("merged a non-SC execution")
	}
}

// The paper's §6.3 caveat: an SC execution whose per-address coherent
// schedules were chosen badly can fail to merge, while VSC succeeds.
func TestMergeWrongScheduleSetFailsButVSCSucceeds(t *testing.T) {
	// Address 0: two writes with no observers ordering them; address 1
	// pins P0's write after P1's read. Choosing the wrong order for
	// address 0's writes blocks the merge.
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.W(1, 1)},
		memory.History{memory.R(1, 1), memory.W(0, 2)},
	).SetInitial(0, 0).SetInitial(1, 0).SetFinal(0, 2)

	// Correct set: W(0,1) before W(0,2).
	good := map[memory.Addr]memory.Schedule{
		0: {{Proc: 0, Index: 0}, {Proc: 1, Index: 1}},
		1: {{Proc: 0, Index: 1}, {Proc: 1, Index: 0}},
	}
	res, err := MergeSchedules(exec, good)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Fatal("correct schedule set did not merge")
	}

	// Wrong set for address 0 — coherent in isolation only without the
	// final-value pin, so drop it for the per-address certificate…
	noFinal := exec.Clone()
	delete(noFinal.Final, 0)
	wrong := map[memory.Addr]memory.Schedule{
		0: {{Proc: 1, Index: 1}, {Proc: 0, Index: 0}},
		1: {{Proc: 0, Index: 1}, {Proc: 1, Index: 0}},
	}
	res, err = MergeSchedules(noFinal, wrong)
	if err != nil {
		t.Fatal(err)
	}
	if res.Consistent {
		t.Error("wrong schedule set merged; expected a precedence cycle")
	}
	// …while the full VSC search still certifies the execution as SC.
	vsc, err := NewVerifier(SC).Verify(context.Background(), noFinal)
	if err != nil {
		t.Fatal(err)
	}
	if !vsc.Consistent {
		t.Error("VSC rejected an SC execution")
	}
}

// Property: merging the coherence solver's own per-address certificates
// is sound — when the merge succeeds the result is a valid SC schedule,
// and when the execution is SC via schedules derived from an actual SC
// certificate, the merge must succeed.
func TestMergeRoundTripFromSCCertificate(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	merged := 0
	for i := 0; i < 300; i++ {
		exec := randomMultiAddress(rng)
		vsc, err := NewVerifier(SC).Verify(context.Background(), exec)
		if err != nil {
			t.Fatal(err)
		}
		if !vsc.Consistent {
			continue
		}
		// Derive per-address coherent schedules from the SC certificate.
		schedules := map[memory.Addr]memory.Schedule{}
		for _, r := range vsc.Schedule {
			o := exec.Op(r)
			if !o.IsMemory() {
				continue
			}
			schedules[o.Addr] = append(schedules[o.Addr], r)
		}
		res, err := MergeSchedules(exec, schedules)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if !res.Consistent {
			t.Fatalf("instance %d: schedules sliced from an SC certificate failed to merge\nhistories=%v",
				i, exec.Histories)
		}
		if err := memory.CheckSC(exec, res.Schedule); err != nil {
			t.Fatalf("instance %d: merged schedule not SC: %v", i, err)
		}
		merged++
	}
	if merged < 30 {
		t.Errorf("only %d instances exercised the merge", merged)
	}
}
