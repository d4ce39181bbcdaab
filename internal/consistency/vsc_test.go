package consistency

import (
	"context"
	"math/rand"
	"testing"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// bruteForceSC enumerates every interleaving of the memory operations and
// checks each with memory.CheckSC. Test oracle; exponential.
func bruteForceSC(exec *memory.Execution) bool {
	pos := make([]int, len(exec.Histories))
	var sched memory.Schedule
	var try func() bool
	try = func() bool {
		done := true
		for h := range exec.Histories {
			if pos[h] < len(exec.Histories[h]) {
				done = false
				break
			}
		}
		if done {
			return memory.CheckSC(exec, sched) == nil
		}
		for h := range exec.Histories {
			if pos[h] >= len(exec.Histories[h]) {
				continue
			}
			sched = append(sched, memory.Ref{Proc: h, Index: pos[h]})
			pos[h]++
			if try() {
				return true
			}
			pos[h]--
			sched = sched[:len(sched)-1]
		}
		return false
	}
	return try()
}

// randomMultiAddress generates small random multi-address executions.
func randomMultiAddress(rng *rand.Rand) *memory.Execution {
	nproc := 1 + rng.Intn(3)
	naddr := 1 + rng.Intn(2)
	nvals := 1 + rng.Intn(2)
	exec := &memory.Execution{}
	for p := 0; p < nproc; p++ {
		nops := rng.Intn(4)
		var h memory.History
		for i := 0; i < nops; i++ {
			a := memory.Addr(rng.Intn(naddr))
			v := memory.Value(rng.Intn(nvals))
			switch rng.Intn(3) {
			case 0:
				h = append(h, memory.R(a, v))
			case 1:
				h = append(h, memory.W(a, v))
			default:
				h = append(h, memory.RW(a, v, memory.Value(rng.Intn(nvals))))
			}
		}
		exec.Histories = append(exec.Histories, h)
	}
	for a := 0; a < naddr; a++ {
		if rng.Intn(2) == 0 {
			exec.SetInitial(memory.Addr(a), memory.Value(rng.Intn(nvals)))
		}
	}
	return exec
}

// Dekker / store-buffering litmus: both processors read 0 after both
// wrote 1. Not SC; allowed under TSO.
func dekkerExecution() *memory.Execution {
	return memory.NewExecution(
		memory.History{memory.W(0, 1), memory.R(1, 0)},
		memory.History{memory.W(1, 1), memory.R(0, 0)},
	).SetInitial(0, 0).SetInitial(1, 0)
}

// Message passing litmus with the stale-data outcome: P1 sees the flag
// but not the data. Not SC, not TSO; allowed under PSO.
func messagePassingStale() *memory.Execution {
	return memory.NewExecution(
		memory.History{memory.W(0, 1), memory.W(1, 1)}, // data, then flag
		memory.History{memory.R(1, 1), memory.R(0, 0)}, // flag seen, data stale
	).SetInitial(0, 0).SetInitial(1, 0)
}

func TestSolveVSCAcceptsSCExecution(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.W(1, 1)},
		memory.History{memory.R(1, 1), memory.R(0, 1)},
	).SetInitial(0, 0).SetInitial(1, 0)
	res, err := NewVerifier(SC).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Fatal("SC execution rejected")
	}
	if err := memory.CheckSC(exec, res.Schedule); err != nil {
		t.Errorf("invalid SC certificate: %v", err)
	}
}

func TestSolveVSCRejectsDekker(t *testing.T) {
	res, err := NewVerifier(SC).Verify(context.Background(), dekkerExecution())
	if err != nil {
		t.Fatal(err)
	}
	if res.Consistent {
		t.Error("Dekker store-buffering outcome accepted as SC")
	}
}

func TestSolveVSCRejectsStaleMessagePassing(t *testing.T) {
	res, err := NewVerifier(SC).Verify(context.Background(), messagePassingStale())
	if err != nil {
		t.Fatal(err)
	}
	if res.Consistent {
		t.Error("stale message-passing outcome accepted as SC")
	}
}

func TestSolveVSCIRIW(t *testing.T) {
	// Independent reads of independent writes: the two reader processors
	// observe the two writes in opposite orders. Not SC.
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1)},
		memory.History{memory.W(1, 1)},
		memory.History{memory.R(0, 1), memory.R(1, 0)},
		memory.History{memory.R(1, 1), memory.R(0, 0)},
	).SetInitial(0, 0).SetInitial(1, 0)
	res, err := NewVerifier(SC).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Consistent {
		t.Error("IRIW outcome accepted as SC")
	}
}

func TestSolveVSCWithSyncOps(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.Acq(), memory.W(0, 1), memory.Rel()},
		memory.History{memory.Acq(), memory.R(0, 1), memory.Rel()},
	).SetInitial(0, 0)
	res, err := NewVerifier(SC).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Fatal("synchronized execution rejected")
	}
	if err := memory.CheckSC(exec, res.Schedule); err != nil {
		t.Errorf("invalid certificate: %v", err)
	}
}

func TestSolveVSCFinalValues(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1)},
		memory.History{memory.W(0, 2)},
	).SetInitial(0, 0).SetFinal(0, 1)
	res, err := NewVerifier(SC).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Fatal("achievable final value rejected")
	}
	exec.SetFinal(0, 9)
	res, err = NewVerifier(SC).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Consistent {
		t.Error("unwritten final value accepted")
	}
}

func TestSolveVSCMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	scSeen, nonSCSeen := 0, 0
	for i := 0; i < 400; i++ {
		exec := randomMultiAddress(rng)
		want := bruteForceSC(exec)
		res, err := NewVerifier(SC).Verify(context.Background(), exec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Consistent != want {
			t.Fatalf("instance %d: SolveVSC=%v oracle=%v\nhistories=%v init=%v",
				i, res.Consistent, want, exec.Histories, exec.Initial)
		}
		if res.Consistent {
			scSeen++
			if err := memory.CheckSC(exec, res.Schedule); err != nil {
				t.Fatalf("instance %d: invalid certificate: %v", i, err)
			}
		} else {
			nonSCSeen++
		}
	}
	if scSeen == 0 || nonSCSeen == 0 {
		t.Errorf("degenerate generator: %d SC, %d non-SC", scSeen, nonSCSeen)
	}
}

func TestSolveVSCAblationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	variants := []*Options{
		nil,
		{DisableMemoization: true},
		{DisableEagerReads: true},
	}
	for i := 0; i < 150; i++ {
		exec := randomMultiAddress(rng)
		want := bruteForceSC(exec)
		for vi, opts := range variants {
			res, err := NewVerifier(SC, solver.WithOptions(opts)).Verify(context.Background(), exec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Consistent != want {
				t.Fatalf("instance %d variant %d: got %v want %v", i, vi, res.Consistent, want)
			}
		}
	}
}

func TestSolveVSCBudget(t *testing.T) {
	res, err := NewVerifier(SC, solver.WithBudget(solver.WithMaxStates(1))).Verify(context.Background(), dekkerExecution())
	if err == nil {
		t.Fatalf("budget-limited search returned a verdict (consistent=%v)", res.Consistent)
	}
	be, ok := solver.AsBudgetError(err)
	if !ok {
		t.Fatalf("error is not *solver.ErrBudgetExceeded: %v", err)
	}
	if be.Reason != solver.ExceededStates || be.Stats.States == 0 {
		t.Errorf("budget error reason=%v states=%d, want ExceededStates with partial stats", be.Reason, be.Stats.States)
	}
}

func TestSolveVSCCPromise(t *testing.T) {
	// Dekker is coherent per address (each address is just W then R of
	// initial) but not SC: VSCC must answer false.
	res, err := NewVerifier(VSCC).Verify(context.Background(), dekkerExecution())
	if err != nil {
		t.Fatal(err)
	}
	if res.Consistent {
		t.Error("VSCC accepted a non-SC coherent execution")
	}

	// Promise violated: incoherent address.
	incoherent := memory.NewExecution(
		memory.History{memory.R(0, 5)},
	).SetInitial(0, 0)
	if _, err := NewVerifier(VSCC).Verify(context.Background(), incoherent); err == nil {
		t.Error("VSCC accepted an instance violating the coherence promise")
	}

	// Coherent and SC.
	ok := memory.NewExecution(
		memory.History{memory.W(0, 1)},
		memory.History{memory.R(0, 1)},
	).SetInitial(0, 0)
	res, err = NewVerifier(VSCC).Verify(context.Background(), ok)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Error("VSCC rejected an SC execution")
	}
}

func TestVerifyDispatch(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1)},
		memory.History{memory.R(0, 1)},
	).SetInitial(0, 0)
	for _, m := range []Model{SC, TSO, PSO, CoherenceOnly} {
		res, err := NewVerifier(m).Verify(context.Background(), exec)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !res.Consistent {
			t.Errorf("%v rejected a trivially consistent execution", m)
		}
	}
	if _, err := NewVerifier(Model(99)).Verify(context.Background(), exec); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestModelString(t *testing.T) {
	names := map[Model]string{SC: "SC", TSO: "TSO", PSO: "PSO", CoherenceOnly: "Coherence", LRC: "LRC"}
	for m, want := range names {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", m, got, want)
		}
	}
}

// Coherent-but-not-SC: the canonical separation. Each address alone is
// coherent, the combination is not SC (this is coRR across two addresses
// with crossing orders).
func TestCoherentNotSC(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1)},
		memory.History{memory.W(1, 1)},
		memory.History{memory.R(0, 1), memory.R(1, 0), memory.R(1, 1), memory.R(0, 1)},
		memory.History{memory.R(1, 1), memory.R(0, 0), memory.R(0, 1), memory.R(1, 1)},
	).SetInitial(0, 0).SetInitial(1, 0)
	cohRes, err := NewVerifier(CoherenceOnly).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if !cohRes.Consistent {
		t.Fatal("execution should be coherent per address")
	}
	scRes, err := NewVerifier(SC).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if scRes.Consistent {
		t.Error("execution should not be SC (readers disagree on write order)")
	}
}
