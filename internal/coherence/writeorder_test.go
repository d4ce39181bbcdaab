package coherence

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

func TestWriteOrderAcceptsRecordedTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		exec, order := randomCoherentTrace(rng, 3, 5, 3)
		res, err := SolveWithWriteOrder(context.Background(), exec, 0, order, nil)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if !res.Coherent {
			t.Fatalf("instance %d: recorded coherent trace rejected\nhistories=%v order=%v",
				i, exec.Histories, order)
		}
		if err := memory.CheckCoherent(exec, 0, res.Schedule); err != nil {
			t.Fatalf("instance %d: invalid certificate: %v", i, err)
		}
	}
}

func TestWriteOrderDetectsViolation(t *testing.T) {
	// P0 writes 1 then 2 (write order says 1 before 2), P1 reads 2 then 1.
	// With the write order fixed, P1's R(1) after R(2) cannot be placed.
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.W(0, 2)},
		memory.History{memory.R(0, 2), memory.R(0, 1)},
	).SetInitial(0, 0)
	order := []memory.Ref{{Proc: 0, Index: 0}, {Proc: 0, Index: 1}}
	res, err := SolveWithWriteOrder(context.Background(), exec, 0, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coherent {
		t.Error("stale read pattern accepted")
	}
}

func TestWriteOrderValidatesInput(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.W(0, 2)},
	)
	w0 := memory.Ref{Proc: 0, Index: 0}
	w1 := memory.Ref{Proc: 0, Index: 1}

	// Program order violated in the supplied write order.
	if _, err := SolveWithWriteOrder(context.Background(), exec, 0, []memory.Ref{w1, w0}, nil); err == nil {
		t.Error("write order violating program order accepted")
	}
	// Missing write.
	if _, err := SolveWithWriteOrder(context.Background(), exec, 0, []memory.Ref{w0}, nil); err == nil {
		t.Error("incomplete write order accepted")
	}
	// Duplicate.
	if _, err := SolveWithWriteOrder(context.Background(), exec, 0, []memory.Ref{w0, w0}, nil); err == nil {
		t.Error("duplicate write order entry accepted")
	}
	// A read in the write order.
	withRead := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.R(0, 1)},
	)
	if _, err := SolveWithWriteOrder(context.Background(), withRead, 0, []memory.Ref{{Proc: 0, Index: 0}, {Proc: 0, Index: 1}}, nil); err == nil {
		t.Error("read accepted as a write order entry")
	}
	// A ref that is not an operation of the address.
	other := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.W(1, 2)},
	)
	if _, err := SolveWithWriteOrder(context.Background(), other, 0, []memory.Ref{{Proc: 0, Index: 0}, {Proc: 0, Index: 1}}, nil); err == nil {
		t.Error("write to another address accepted in the write order")
	}

	// Out-of-range refs, as a trace's order lines or a memverifyd
	// use_order request may carry them: an error from both write-order
	// entry points, never a panic.
	rmw := memory.NewExecution( // the same shape as exec: one history of two writers
		memory.History{memory.RW(0, 0, 1), memory.RW(0, 1, 2)},
	)
	for _, bad := range []memory.Ref{
		{Proc: -1, Index: 0},
		{Proc: len(exec.Histories), Index: 0},
		{Proc: 0, Index: -1},
		{Proc: 0, Index: len(exec.Histories[0])},
		{Proc: 0, Index: 1 << 40},
	} {
		if _, err := SolveWithWriteOrder(context.Background(), exec, 0, []memory.Ref{w0, bad}, nil); err == nil {
			t.Errorf("SolveWithWriteOrder accepted out-of-range entry %s", bad)
		}
		if _, err := CheckRMWWriteOrder(context.Background(), rmw, 0, []memory.Ref{{Proc: 0, Index: 0}, bad}); err == nil {
			t.Errorf("CheckRMWWriteOrder accepted out-of-range entry %s", bad)
		}
	}
}

// TestWriteOrderErrorsNameCallerRefs: on a two-address execution the
// projection of address 1 renumbers P0's ops, and a faulty write order
// must still be reported by the refs the caller gave.
func TestWriteOrderErrorsNameCallerRefs(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 5), memory.W(1, 1), memory.W(1, 2)},
		memory.History{memory.R(1, 1)},
	).SetInitial(0, 0).SetInitial(1, 0)
	for _, tc := range []struct {
		order []memory.Ref
		want  string
	}{
		{[]memory.Ref{{Proc: 0, Index: 1}, {Proc: 0, Index: 1}}, "coherence: write order lists P0[1] twice"},
		{[]memory.Ref{{Proc: 0, Index: 2}, {Proc: 0, Index: 1}}, "coherence: write order violates program order at P0[1]"},
		{[]memory.Ref{{Proc: 0, Index: 1}, {Proc: 1, Index: 0}}, "coherence: write order entry P1[0] (R(1, 1)) does not write"},
	} {
		_, err := SolveWithWriteOrder(context.Background(), exec, 1, tc.order, nil)
		if err == nil || err.Error() != tc.want {
			t.Errorf("order %v: error %v, want %q", tc.order, err, tc.want)
		}
	}

	rmw := memory.NewExecution(
		memory.History{memory.RW(0, 0, 5), memory.RW(1, 0, 1), memory.RW(1, 1, 2)},
	)
	for _, tc := range []struct {
		order []memory.Ref
		want  string
	}{
		{[]memory.Ref{{Proc: 0, Index: 2}, {Proc: 0, Index: 2}}, "coherence: write order lists P0[2] twice"},
		{[]memory.Ref{{Proc: 0, Index: 2}, {Proc: 0, Index: 1}}, "coherence: write order violates program order at P0[1]"},
	} {
		_, err := CheckRMWWriteOrder(context.Background(), rmw, 1, tc.order)
		if err == nil || err.Error() != tc.want {
			t.Errorf("RMW order %v: error %v, want %q", tc.order, err, tc.want)
		}
	}
}

// With no declared initial value, the pre-write value candidates are
// tried in first-seen history order, so repeated solves of one instance
// return one certificate. Both candidates (1 and 2) are coherent here.
func TestWriteOrderDeterministicCertificate(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.R(0, 1)},
		memory.History{memory.W(0, 1)},
		memory.History{memory.R(0, 2)},
		memory.History{memory.W(0, 2)},
	)
	order := []memory.Ref{{Proc: 1, Index: 0}, {Proc: 3, Index: 0}}
	var first memory.Schedule
	for i := 0; i < 50; i++ {
		res, err := SolveWithWriteOrder(context.Background(), exec, 0, order, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Coherent {
			t.Fatal("coherent instance rejected")
		}
		if err := memory.CheckCoherent(exec, 0, res.Schedule); err != nil {
			t.Fatalf("invalid certificate: %v", err)
		}
		if i == 0 {
			first = res.Schedule
		} else if !reflect.DeepEqual(res.Schedule, first) {
			t.Fatalf("solve %d returned certificate %v, solve 0 returned %v", i, res.Schedule, first)
		}
	}
	// The first-seen candidate is P0's read of 1.
	if want := (memory.Schedule{{Proc: 0, Index: 0}, {Proc: 1, Index: 0}, {Proc: 3, Index: 0}, {Proc: 2, Index: 0}}); !reflect.DeepEqual(first, want) {
		t.Errorf("certificate %v, want %v", first, want)
	}
}

func TestWriteOrderFinalValue(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1)},
		memory.History{memory.W(0, 2)},
	).SetFinal(0, 2)
	good := []memory.Ref{{Proc: 0, Index: 0}, {Proc: 1, Index: 0}}
	res, err := SolveWithWriteOrder(context.Background(), exec, 0, good, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Coherent {
		t.Error("write order ending on the final value rejected")
	}
	bad := []memory.Ref{{Proc: 1, Index: 0}, {Proc: 0, Index: 0}}
	res, err = SolveWithWriteOrder(context.Background(), exec, 0, bad, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coherent {
		t.Error("write order ending on a non-final value accepted")
	}
}

func TestWriteOrderRMWEmbedded(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.RW(0, 0, 1)},
		memory.History{memory.RW(0, 1, 2)},
	).SetInitial(0, 0)
	good := []memory.Ref{{Proc: 0, Index: 0}, {Proc: 1, Index: 0}}
	res, err := SolveWithWriteOrder(context.Background(), exec, 0, good, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Coherent {
		t.Error("valid RMW write order rejected")
	}
	bad := []memory.Ref{{Proc: 1, Index: 0}, {Proc: 0, Index: 0}}
	res, err = SolveWithWriteOrder(context.Background(), exec, 0, bad, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coherent {
		t.Error("RMW write order with broken chain accepted")
	}
}

func TestWriteOrderUnboundInitialBindsViaRMW(t *testing.T) {
	// No declared initial value; the first RMW in the write order forces
	// the pre-write region to its read value, and a plain read of that
	// value can sit before it.
	exec := memory.NewExecution(
		memory.History{memory.RW(0, 7, 1)},
		memory.History{memory.R(0, 7)},
	)
	order := []memory.Ref{{Proc: 0, Index: 0}}
	res, err := SolveWithWriteOrder(context.Background(), exec, 0, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Coherent {
		t.Error("binding via leading RMW failed")
	}
	if err := memory.CheckCoherent(exec, 0, res.Schedule); err != nil {
		t.Errorf("invalid certificate: %v", err)
	}
}

func TestWriteOrderUnboundInitialCandidates(t *testing.T) {
	// No declared initial value and no writes at all: the reads must
	// agree on a binding.
	agree := memory.NewExecution(
		memory.History{memory.R(0, 3), memory.R(0, 3)},
		memory.History{memory.R(0, 3)},
	)
	res, err := SolveWithWriteOrder(context.Background(), agree, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Coherent {
		t.Error("agreeing pre-write reads rejected")
	}

	disagree := memory.NewExecution(
		memory.History{memory.R(0, 3)},
		memory.History{memory.R(0, 4)},
	)
	res, err = SolveWithWriteOrder(context.Background(), disagree, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coherent {
		t.Error("disagreeing pre-write reads accepted")
	}
}

// Property: for random instances, if the general solver finds a coherent
// schedule, feeding that schedule's write order to SolveWithWriteOrder
// must succeed; and any SolveWithWriteOrder success implies the general
// solver succeeds.
func TestWriteOrderConsistentWithGeneralSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 300; i++ {
		exec := randomInstance(rng)
		res, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), exec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Coherent {
			continue
		}
		// Extract the write order from the certificate.
		var order []memory.Ref
		for _, r := range res.Schedule {
			if _, ok := exec.Op(r).Writes(); ok {
				order = append(order, r)
			}
		}
		wres, err := SolveWithWriteOrder(context.Background(), exec, 0, order, nil)
		if err != nil {
			t.Fatalf("instance %d: %v (histories=%v)", i, err, exec.Histories)
		}
		if !wres.Coherent {
			t.Fatalf("instance %d: write order from a valid certificate rejected\nhistories=%v init=%v final=%v order=%v",
				i, exec.Histories, exec.Initial, exec.Final, order)
		}
		if err := memory.CheckCoherent(exec, 0, wres.Schedule); err != nil {
			t.Fatalf("instance %d: invalid certificate: %v", i, err)
		}
	}
}

func TestCheckRMWWriteOrder(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.RW(0, 0, 1), memory.RW(0, 2, 3)},
		memory.History{memory.RW(0, 1, 2)},
	).SetInitial(0, 0).SetFinal(0, 3)
	good := []memory.Ref{{Proc: 0, Index: 0}, {Proc: 1, Index: 0}, {Proc: 0, Index: 1}}
	res, err := CheckRMWWriteOrder(context.Background(), exec, 0, good)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Coherent {
		t.Error("valid RMW total order rejected")
	}
	if err := memory.CheckCoherent(exec, 0, res.Schedule); err != nil {
		t.Errorf("invalid certificate: %v", err)
	}

	// Broken chain.
	bad := []memory.Ref{{Proc: 1, Index: 0}, {Proc: 0, Index: 0}, {Proc: 0, Index: 1}}
	if _, err := CheckRMWWriteOrder(context.Background(), exec, 0, bad); err != nil {
		t.Fatal(err)
	}
	res, err = CheckRMWWriteOrder(context.Background(), exec, 0, bad)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coherent {
		t.Error("broken RMW chain accepted")
	}

	// Wrong final value.
	exec.SetFinal(0, 9)
	res, err = CheckRMWWriteOrder(context.Background(), exec, 0, good)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coherent {
		t.Error("RMW order ending on non-final value accepted")
	}

	// Non-RMW instance rejected.
	mixed := memory.NewExecution(memory.History{memory.W(0, 1)})
	if _, err := CheckRMWWriteOrder(context.Background(), mixed, 0, []memory.Ref{{Proc: 0, Index: 0}}); err == nil {
		t.Error("non-RMW instance accepted")
	}

	// Wrong cardinality.
	if _, err := CheckRMWWriteOrder(context.Background(), exec, 0, good[:2]); err == nil {
		t.Error("short write order accepted")
	}
}
