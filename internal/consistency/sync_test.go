package consistency

import (
	"context"
	"testing"

	"memverify/internal/memory"
)

// Acquire/release are treated as fences by the store-buffer checkers
// (conservative); this pins that behavior.
func TestTSOAcquireReleaseDrain(t *testing.T) {
	// Dekker with release after the write and acquire before the read:
	// under the conservative fence treatment the 0/0 outcome is
	// rejected.
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.Rel(), memory.Acq(), memory.R(1, 0)},
		memory.History{memory.W(1, 1), memory.Rel(), memory.Acq(), memory.R(0, 0)},
	).SetInitial(0, 0).SetInitial(1, 0)
	res, err := NewVerifier(TSO).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Consistent {
		t.Error("synchronized Dekker 0/0 accepted under TSO")
	}
}

func TestPSOFenceOrdersWrites(t *testing.T) {
	// Message passing with a fence between data and flag: the stale
	// outcome becomes illegal even under PSO.
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.Bar(), memory.W(1, 1)},
		memory.History{memory.R(1, 1), memory.R(0, 0)},
	).SetInitial(0, 0).SetInitial(1, 0)
	res, err := NewVerifier(PSO).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Consistent {
		t.Error("fenced message passing stale outcome accepted under PSO")
	}
	// Without the fence it is legal.
	relaxed := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.W(1, 1)},
		memory.History{memory.R(1, 1), memory.R(0, 0)},
	).SetInitial(0, 0).SetInitial(1, 0)
	res, err = NewVerifier(PSO).Verify(context.Background(), relaxed)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Error("unfenced message passing stale outcome rejected under PSO")
	}
}

func TestVSCSyncOpsInWitness(t *testing.T) {
	// The SC search schedules sync ops too; the witness contains them.
	exec := memory.NewExecution(
		memory.History{memory.Acq(), memory.W(0, 1), memory.Rel()},
	).SetInitial(0, 0)
	res, err := NewVerifier(SC).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Fatal("trivial synchronized execution rejected")
	}
	if len(res.Schedule) != 3 {
		t.Errorf("witness has %d entries, want 3 (sync ops included)", len(res.Schedule))
	}
}

func TestReplayDetectsForwardedMismatch(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.R(0, 2)},
	).SetInitial(0, 0)
	events := []Event{
		{Kind: EventIssue, Ref: memory.Ref{Proc: 0, Index: 0}},
		{Kind: EventIssue, Ref: memory.Ref{Proc: 0, Index: 1}}, // forwards 1, trace says 2
	}
	if err := ReplayEvents(exec, events, false); err == nil {
		t.Error("forwarding mismatch accepted")
	}
}

func TestReplayDetectsRMWWithPendingBuffer(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.RW(0, 1, 2)},
	).SetInitial(0, 0)
	events := []Event{
		{Kind: EventIssue, Ref: memory.Ref{Proc: 0, Index: 0}},
		{Kind: EventIssue, Ref: memory.Ref{Proc: 0, Index: 1}}, // RMW with pending store
	}
	if err := ReplayEvents(exec, events, false); err == nil {
		t.Error("RMW with non-empty buffer accepted")
	}
}

func TestReplayFinalValueMismatch(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1)},
	).SetInitial(0, 0).SetFinal(0, 9)
	events := []Event{
		{Kind: EventIssue, Ref: memory.Ref{Proc: 0, Index: 0}},
		{Kind: EventCommit, Ref: memory.Ref{Proc: 0, Index: 0}},
	}
	if err := ReplayEvents(exec, events, false); err == nil {
		t.Error("final value mismatch accepted")
	}
}
