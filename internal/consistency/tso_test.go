package consistency

import (
	"context"
	"math/rand"
	"testing"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

func TestTSOAcceptsDekker(t *testing.T) {
	exec := dekkerExecution()
	res, err := NewVerifier(TSO).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Fatal("TSO rejected the store-buffering outcome it is defined by")
	}
	if err := ReplayEvents(exec, res.Events, false); err != nil {
		t.Errorf("TSO witness does not replay: %v", err)
	}
}

func TestTSORejectsStaleMessagePassing(t *testing.T) {
	// TSO commits stores in order, so the flag cannot become visible
	// before the data.
	res, err := NewVerifier(TSO).Verify(context.Background(), messagePassingStale())
	if err != nil {
		t.Fatal(err)
	}
	if res.Consistent {
		t.Error("TSO accepted write reordering (stale message passing)")
	}
}

func TestPSOAcceptsStaleMessagePassing(t *testing.T) {
	exec := messagePassingStale()
	res, err := NewVerifier(PSO).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Fatal("PSO rejected per-address write reordering it is defined by")
	}
	if err := ReplayEvents(exec, res.Events, true); err != nil {
		t.Errorf("PSO witness does not replay: %v", err)
	}
}

func TestPSOKeepsPerAddressOrder(t *testing.T) {
	// Two writes to the SAME address must stay ordered even under PSO.
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.W(0, 2)},
		memory.History{memory.R(0, 2), memory.R(0, 1)},
	).SetInitial(0, 0)
	res, err := NewVerifier(PSO).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Consistent {
		t.Error("PSO reordered same-address writes")
	}
}

func TestTSOFenceRestoresSC(t *testing.T) {
	// Dekker with fences between the write and the read is SC-strength:
	// the 0/0 outcome must be rejected.
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.Bar(), memory.R(1, 0)},
		memory.History{memory.W(1, 1), memory.Bar(), memory.R(0, 0)},
	).SetInitial(0, 0).SetInitial(1, 0)
	res, err := NewVerifier(TSO).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Consistent {
		t.Error("TSO accepted fenced Dekker 0/0 outcome")
	}
}

func TestTSOForwarding(t *testing.T) {
	// A processor must see its own buffered store even before commit,
	// while the other processor still sees the old value.
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.R(0, 1), memory.R(1, 0)},
		memory.History{memory.W(1, 1), memory.R(1, 1), memory.R(0, 0)},
	).SetInitial(0, 0).SetInitial(1, 0)
	res, err := NewVerifier(TSO).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Fatal("TSO rejected store forwarding")
	}
	if err := ReplayEvents(exec, res.Events, false); err != nil {
		t.Errorf("witness does not replay: %v", err)
	}
}

func TestTSORMWDrainsBuffer(t *testing.T) {
	// An RMW acts atomically on memory: it cannot observe a value that
	// skips the processor's own pending store.
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.RW(0, 0, 2)},
	).SetInitial(0, 0)
	res, err := NewVerifier(TSO).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Consistent {
		t.Error("RMW observed pre-buffer value after own write")
	}

	ok := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.RW(0, 1, 2)},
	).SetInitial(0, 0).SetFinal(0, 2)
	res, err = NewVerifier(TSO).Verify(context.Background(), ok)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Error("RMW after own write rejected")
	}
}

func TestTSOFinalValues(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1)},
		memory.History{memory.W(0, 2)},
	).SetInitial(0, 0).SetFinal(0, 2)
	res, err := NewVerifier(TSO).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Fatal("achievable final value rejected")
	}
	exec.SetFinal(0, 9)
	res, err = NewVerifier(TSO).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Consistent {
		t.Error("unwritten final value accepted")
	}
}

// TestStoreBufferUntouchedFinalAddress: an address no operation touches
// keeps its declared initial value, so a different declared final value
// refutes TSO and PSO, and fails the replay of any witness; with the
// final value equal to the initial one, or no initial value declared,
// the address passes.
func TestStoreBufferUntouchedFinalAddress(t *testing.T) {
	ctx := context.Background()
	const x, y = memory.Addr(0), memory.Addr(1)
	for _, tc := range []struct {
		name string
		exec *memory.Execution
		want bool
	}{
		{"init 1 final 0", memory.NewExecution(memory.History{memory.W(y, 1)}).SetInitial(x, 1).SetFinal(x, 0), false},
		{"init 0 final 0", memory.NewExecution(memory.History{memory.W(y, 1)}).SetInitial(x, 0).SetFinal(x, 0), true},
		{"final 0 only", memory.NewExecution(memory.History{memory.W(y, 1)}).SetFinal(x, 0), true},
	} {
		for _, m := range []struct {
			model Model
			pso   bool
		}{{TSO, false}, {PSO, true}} {
			res, err := NewVerifier(m.model).Verify(ctx, tc.exec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Consistent != tc.want {
				t.Errorf("%s: %v says consistent=%v, want %v", tc.name, m.model, res.Consistent, tc.want)
			}
			// The witness of the one schedule there is: issue and commit
			// the write to y.
			w := memory.Ref{Proc: 0, Index: 0}
			err = ReplayEvents(tc.exec, []Event{{Kind: EventIssue, Ref: w}, {Kind: EventCommit, Ref: w}}, m.pso)
			if (err == nil) != tc.want {
				t.Errorf("%s: replay under %v: %v, want accepted=%v", tc.name, m.model, err, tc.want)
			}
		}
	}
}

// Property: SC implies TSO implies PSO on random executions (the models
// are strictly ordered in permissiveness).
func TestModelHierarchy(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for i := 0; i < 200; i++ {
		exec := randomMultiAddress(rng)
		sc, err := NewVerifier(SC).Verify(context.Background(), exec)
		if err != nil {
			t.Fatal(err)
		}
		tso, err := NewVerifier(TSO).Verify(context.Background(), exec)
		if err != nil {
			t.Fatal(err)
		}
		pso, err := NewVerifier(PSO).Verify(context.Background(), exec)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Consistent && !tso.Consistent {
			t.Fatalf("instance %d: SC but not TSO\nhistories=%v init=%v",
				i, exec.Histories, exec.Initial)
		}
		if tso.Consistent && !pso.Consistent {
			t.Fatalf("instance %d: TSO but not PSO\nhistories=%v init=%v",
				i, exec.Histories, exec.Initial)
		}
		if tso.Consistent {
			if err := ReplayEvents(exec, tso.Events, false); err != nil {
				t.Fatalf("instance %d: TSO witness invalid: %v", i, err)
			}
		}
		if pso.Consistent {
			if err := ReplayEvents(exec, pso.Events, true); err != nil {
				t.Fatalf("instance %d: PSO witness invalid: %v", i, err)
			}
		}
	}
}

func TestTSOBudget(t *testing.T) {
	res, err := NewVerifier(TSO, solver.WithBudget(solver.WithMaxStates(1))).Verify(context.Background(), messagePassingStale())
	if err == nil {
		t.Fatalf("budget-limited verification returned a verdict (consistent=%v)", res.Consistent)
	}
	be, ok := solver.AsBudgetError(err)
	if !ok {
		t.Fatalf("error is not *solver.ErrBudgetExceeded: %v", err)
	}
	if be.Reason != solver.ExceededStates || be.Stats.States == 0 {
		t.Errorf("budget error reason=%v states=%d, want ExceededStates with partial stats", be.Reason, be.Stats.States)
	}
}

func TestReplayRejectsBogusWitness(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.R(0, 1)},
	).SetInitial(0, 0)
	// Issue out of program order.
	bad := []Event{
		{Kind: EventIssue, Ref: memory.Ref{Proc: 0, Index: 1}},
	}
	if err := ReplayEvents(exec, bad, false); err == nil {
		t.Error("out-of-order issue accepted")
	}
	// Commit of an op that was never buffered.
	bad = []Event{
		{Kind: EventCommit, Ref: memory.Ref{Proc: 0, Index: 0}},
	}
	if err := ReplayEvents(exec, bad, false); err == nil {
		t.Error("commit of unbuffered store accepted")
	}
	// Incomplete run (buffer not drained).
	bad = []Event{
		{Kind: EventIssue, Ref: memory.Ref{Proc: 0, Index: 0}},
	}
	if err := ReplayEvents(exec, bad, false); err == nil {
		t.Error("undrained buffer accepted")
	}
}

func TestEventString(t *testing.T) {
	e := Event{Kind: EventIssue, Ref: memory.Ref{Proc: 1, Index: 2}}
	if got := e.String(); got != "issue P1[2]" {
		t.Errorf("Event.String() = %q", got)
	}
	c := Event{Kind: EventCommit, Ref: memory.Ref{Proc: 0, Index: 3}}
	if got := c.String(); got != "commit P0[3]" {
		t.Errorf("Event.String() = %q", got)
	}
}
