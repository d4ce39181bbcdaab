package consistency

import (
	"context"
	"math/rand"
	"testing"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// ordersFromSchedule slices per-address write orders out of an SC
// schedule.
func ordersFromSchedule(exec *memory.Execution, s memory.Schedule) map[memory.Addr][]memory.Ref {
	out := map[memory.Addr][]memory.Ref{}
	for _, r := range s {
		o := exec.Op(r)
		if !o.IsMemory() {
			continue
		}
		if _, w := o.Writes(); w {
			out[o.Addr] = append(out[o.Addr], r)
		}
	}
	// Ensure every address has an entry (possibly empty).
	for _, a := range exec.Addresses() {
		if _, ok := out[a]; !ok {
			out[a] = nil
		}
	}
	return out
}

func TestVSCWithWriteOrdersAcceptsCertificateOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	checked := 0
	for i := 0; i < 200; i++ {
		exec := randomMultiAddress(rng)
		vsc, err := NewVerifier(SC).Verify(context.Background(), exec)
		if err != nil {
			t.Fatal(err)
		}
		if !vsc.Consistent {
			continue
		}
		checked++
		orders := ordersFromSchedule(exec, vsc.Schedule)
		res, err := NewVerifier(SC, solver.WithWriteOrders(orders)).Verify(context.Background(), exec)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if !res.Consistent {
			t.Fatalf("instance %d: orders from an SC certificate rejected\n%v", i, exec.Histories)
		}
		if err := memory.CheckSC(exec, res.Schedule); err != nil {
			t.Fatalf("instance %d: invalid certificate: %v", i, err)
		}
	}
	if checked < 30 {
		t.Errorf("only %d instances exercised", checked)
	}
}

// Soundness: a schedule found under write-order constraints respects
// them, and success implies plain VSC success.
func TestVSCWithWriteOrdersRespectsOrders(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1)},
		memory.History{memory.W(0, 2)},
		memory.History{memory.R(0, 1), memory.R(0, 2)},
	).SetInitial(0, 0)
	// Order forcing W(1) before W(2): consistent with the reads.
	good := map[memory.Addr][]memory.Ref{
		0: {{Proc: 0, Index: 0}, {Proc: 1, Index: 0}},
	}
	res, err := NewVerifier(SC, solver.WithWriteOrders(good)).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Fatal("consistent order rejected")
	}
	// Reverse order: the reads observe 1 then 2, impossible.
	bad := map[memory.Addr][]memory.Ref{
		0: {{Proc: 1, Index: 0}, {Proc: 0, Index: 0}},
	}
	res, err = NewVerifier(SC, solver.WithWriteOrders(bad)).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Consistent {
		t.Error("order contradicting the reads accepted")
	}
	// Plain VSC accepts the execution (some order works).
	plain, err := NewVerifier(SC).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Consistent {
		t.Error("plain VSC rejected")
	}
}

func TestVSCWithWriteOrdersValidatesInput(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.R(0, 1)},
	).SetInitial(0, 0)
	w := memory.Ref{Proc: 0, Index: 0}
	r := memory.Ref{Proc: 0, Index: 1}
	cases := []map[memory.Addr][]memory.Ref{
		nil,                        // missing order
		{0: {}},                    // wrong cardinality
		{0: {w, w}},                // duplicate + wrong cardinality
		{0: {r}},                   // a read in the order
		{0: {{Proc: 5, Index: 0}}}, // out of range
	}
	for i, orders := range cases {
		if _, err := NewVerifier(SC, solver.WithWriteOrders(orders)).Verify(context.Background(), exec); err == nil {
			t.Errorf("case %d: invalid orders accepted", i)
		}
	}
}

// The constraint prunes: on Dekker, constrained search visits no more
// states than the unconstrained one and still answers false.
func TestVSCWithWriteOrdersPrunes(t *testing.T) {
	exec := dekkerExecution()
	orders := map[memory.Addr][]memory.Ref{
		0: {{Proc: 0, Index: 0}},
		1: {{Proc: 1, Index: 0}},
	}
	constrained, err := NewVerifier(SC, solver.WithWriteOrders(orders)).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if constrained.Consistent {
		t.Error("Dekker accepted")
	}
	plain, err := NewVerifier(SC).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if constrained.Stats.States > plain.Stats.States {
		t.Errorf("constrained search visited %d states, plain %d", constrained.Stats.States, plain.Stats.States)
	}
}
