package tsomachine

import (
	"context"
	"math/rand"
	"testing"

	"memverify/internal/consistency"
	"memverify/internal/mesi"
)

func TestForwarding(t *testing.T) {
	m := New(2, TSO)
	m.Write(0, 0, 5)
	if got := m.Read(0, 0); got != 5 {
		t.Errorf("own read %d, want forwarded 5", got)
	}
	// The other CPU still sees memory (0) until commit.
	if got := m.Read(1, 0); got != 0 {
		t.Errorf("other read %d, want 0 (store still buffered)", got)
	}
	m.DrainAll(0)
	if got := m.Read(1, 0); got != 5 {
		t.Errorf("other read %d after drain, want 5", got)
	}
}

func TestRMWDrains(t *testing.T) {
	m := New(1, TSO)
	m.Write(0, 0, 1)
	old := m.RMW(0, 0, 2)
	if old != 1 {
		t.Errorf("RMW read %d, want 1 (buffer drained first)", old)
	}
}

func TestFenceDrains(t *testing.T) {
	m := New(2, TSO)
	m.Write(0, 0, 1)
	m.Fence(0)
	if got := m.Read(1, 0); got != 1 {
		t.Errorf("read %d after fence, want 1", got)
	}
}

func TestDekkerOutcomeReachable(t *testing.T) {
	// With buffered stores, both CPUs can read 0 after both wrote 1.
	m := New(2, TSO)
	m.SetInitial(0, 0)
	m.SetInitial(1, 0)
	m.Write(0, 0, 1)
	m.Write(1, 1, 1)
	r0 := m.Read(0, 1)
	r1 := m.Read(1, 0)
	if r0 != 0 || r1 != 0 {
		t.Fatalf("reads %d/%d, want the 0/0 store-buffering outcome", r0, r1)
	}
	exec := m.Execution()
	sc, err := consistency.NewVerifier(consistency.SC).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Consistent {
		t.Error("store-buffering outcome judged SC")
	}
	tso, err := consistency.NewVerifier(consistency.TSO).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if !tso.Consistent {
		t.Error("machine-generated trace rejected by the TSO checker")
	}
}

// Cross-validation: every trace the machine can produce must be accepted
// by the corresponding operational checker.
func TestMachineTracesPassCheckers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sawNonSC := false
	for i := 0; i < 60; i++ {
		disc := TSO
		if i%2 == 1 {
			disc = PSO
		}
		m := New(2, disc)
		prog := mesi.RandomProgram(rng, 2, 5, 2, 0.5, 0.05)
		exec := Run(m, prog, rng, 0.2)

		pso, err := consistency.NewVerifier(consistency.PSO).Verify(context.Background(), exec)
		if err != nil {
			t.Fatal(err)
		}
		if !pso.Consistent {
			t.Fatalf("run %d (%v): trace rejected by PSO checker\n%v", i, disc, exec.Histories)
		}
		if disc == TSO {
			tso, err := consistency.NewVerifier(consistency.TSO).Verify(context.Background(), exec)
			if err != nil {
				t.Fatal(err)
			}
			if !tso.Consistent {
				t.Fatalf("run %d: TSO machine trace rejected by TSO checker\n%v", i, exec.Histories)
			}
		}
		sc, err := consistency.NewVerifier(consistency.SC).Verify(context.Background(), exec)
		if err != nil {
			t.Fatal(err)
		}
		if !sc.Consistent {
			sawNonSC = true
		}
	}
	if !sawNonSC {
		t.Log("note: no non-SC trace surfaced in this sample (all interleavings happened to be SC)")
	}
}

func TestPSOReordersWrites(t *testing.T) {
	// Force a PSO-only outcome: P0 writes data then flag; the flag
	// commits first; P1 sees flag=1, data=0.
	m := New(2, PSO)
	m.SetInitial(0, 0)
	m.SetInitial(1, 0)
	m.Write(0, 0, 1) // data
	m.Write(0, 1, 1) // flag
	// Commit the flag (buffer index 1) before the data: under PSO both
	// entries are commit choices; pick deterministically.
	rng := rand.New(rand.NewSource(1))
	for {
		// Retry seeds until the flag commits first.
		mm := New(2, PSO)
		mm.SetInitial(0, 0)
		mm.SetInitial(1, 0)
		mm.Write(0, 0, 1)
		mm.Write(0, 1, 1)
		mm.CommitOne(0, rng)
		if got := mm.Read(1, 1); got == 1 {
			// Flag visible first.
			if data := mm.Read(1, 0); data != 0 {
				t.Fatalf("data = %d, want stale 0", data)
			}
			exec := mm.Execution()
			tso, err := consistency.NewVerifier(consistency.TSO).Verify(context.Background(), exec)
			if err != nil {
				t.Fatal(err)
			}
			if tso.Consistent {
				t.Error("PSO write reordering accepted by the TSO checker")
			}
			pso, err := consistency.NewVerifier(consistency.PSO).Verify(context.Background(), exec)
			if err != nil {
				t.Fatal(err)
			}
			if !pso.Consistent {
				t.Error("PSO machine trace rejected by the PSO checker")
			}
			return
		}
	}
}

func TestExecutionRecordsInitialAndFinal(t *testing.T) {
	m := New(1, TSO)
	m.SetInitial(0, 7)
	m.Read(0, 0)
	m.Write(0, 0, 9)
	exec := m.Execution()
	if exec.Initial[0] != 7 {
		t.Errorf("initial = %d, want 7", exec.Initial[0])
	}
	if exec.Final[0] != 9 {
		t.Errorf("final = %d, want 9", exec.Final[0])
	}
}

func TestDisciplineString(t *testing.T) {
	if TSO.String() != "TSO" || PSO.String() != "PSO" {
		t.Error("discipline names wrong")
	}
}
