package memory

import (
	"reflect"
	"testing"
)

func TestExecutionCounts(t *testing.T) {
	e := NewExecution(
		History{W(0, 1), R(0, 1), Acq()},
		History{R(1, 0), Rel()},
	)
	if got := e.NumProcesses(); got != 2 {
		t.Errorf("NumProcesses = %d, want 2", got)
	}
	if got := e.NumOps(); got != 5 {
		t.Errorf("NumOps = %d, want 5", got)
	}
	if got := e.NumMemoryOps(); got != 3 {
		t.Errorf("NumMemoryOps = %d, want 3", got)
	}
}

func TestExecutionAddresses(t *testing.T) {
	e := NewExecution(
		History{W(5, 1), R(2, 0)},
		History{RW(9, 0, 1), Acq(), W(2, 3)},
	)
	want := []Addr{2, 5, 9}
	if got := e.Addresses(); !reflect.DeepEqual(got, want) {
		t.Errorf("Addresses = %v, want %v", got, want)
	}
}

func TestExecutionInitialFinal(t *testing.T) {
	e := NewExecution(History{W(0, 1)})
	e.SetInitial(0, 42).SetFinal(0, 1)
	if e.Initial[0] != 42 {
		t.Errorf("Initial[0] = %d, want 42", e.Initial[0])
	}
	if e.Final[0] != 1 {
		t.Errorf("Final[0] = %d, want 1", e.Final[0])
	}
}

func TestExecutionOpAndRefs(t *testing.T) {
	e := NewExecution(
		History{W(0, 1), R(0, 1)},
		History{R(0, 1)},
	)
	refs := e.Refs()
	if len(refs) != 3 {
		t.Fatalf("Refs returned %d refs, want 3", len(refs))
	}
	if got := e.Op(Ref{Proc: 0, Index: 1}); got != R(0, 1) {
		t.Errorf("Op(P0[1]) = %v", got)
	}
	if got := (Ref{Proc: 1, Index: 0}).String(); got != "P1[0]" {
		t.Errorf("Ref.String() = %q", got)
	}
}

func TestExecutionValidate(t *testing.T) {
	ok := NewExecution(History{W(0, 1)})
	if err := ok.Validate(); err != nil {
		t.Errorf("valid execution rejected: %v", err)
	}
	bad := NewExecution(History{{Kind: Kind(77)}})
	if err := bad.Validate(); err == nil {
		t.Error("invalid execution accepted")
	}
}

func TestExecutionProject(t *testing.T) {
	e := NewExecution(
		History{W(0, 1), W(1, 2), R(0, 1), Acq()},
		History{R(1, 2), W(0, 3)},
	)
	e.SetInitial(0, 9).SetFinal(0, 3).SetInitial(1, 8)

	proj, back := e.Project(0)
	if got := proj.NumOps(); got != 3 {
		t.Fatalf("projection has %d ops, want 3", got)
	}
	wantHist0 := History{W(0, 1), R(0, 1)}
	if !reflect.DeepEqual(proj.Histories[0], wantHist0) {
		t.Errorf("projection history 0 = %v, want %v", proj.Histories[0], wantHist0)
	}
	wantHist1 := History{W(0, 3)}
	if !reflect.DeepEqual(proj.Histories[1], wantHist1) {
		t.Errorf("projection history 1 = %v, want %v", proj.Histories[1], wantHist1)
	}
	// Back-mapping: the read in the projection (P0[1]) is P0[2] in the
	// original, and P1[0] in the projection is P1[1].
	if got := back[0][1]; got != (Ref{Proc: 0, Index: 2}) {
		t.Errorf("back[P0[1]] = %v, want P0[2]", got)
	}
	if got := back[1][0]; got != (Ref{Proc: 1, Index: 1}) {
		t.Errorf("back[P1[0]] = %v, want P1[1]", got)
	}
	// Initial/final carried over for address 0 only.
	if proj.Initial[0] != 9 {
		t.Errorf("projection Initial[0] = %d, want 9", proj.Initial[0])
	}
	if proj.Final[0] != 3 {
		t.Errorf("projection Final[0] = %d, want 3", proj.Final[0])
	}
	if _, ok := proj.Initial[1]; ok {
		t.Error("projection leaked initial value of another address")
	}
}

func TestWritesPerValue(t *testing.T) {
	e := NewExecution(
		History{W(0, 1), W(0, 1), W(0, 2), RW(0, 2, 3)},
		History{W(1, 1), R(0, 1)},
	)
	got := e.WritesPerValue(0)
	want := map[Value]int{1: 2, 2: 1, 3: 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("WritesPerValue(0) = %v, want %v", got, want)
	}
}

func TestMaxOpsPerProcess(t *testing.T) {
	e := NewExecution(
		History{W(0, 1), Acq(), R(0, 1)},
		History{R(0, 1), R(0, 1), R(0, 1), Rel()},
	)
	if got := e.MaxOpsPerProcess(); got != 3 {
		t.Errorf("MaxOpsPerProcess = %d, want 3", got)
	}
}

func TestExecutionClone(t *testing.T) {
	e := NewExecution(History{W(0, 1)}).SetInitial(0, 5).SetFinal(0, 1)
	c := e.Clone()
	c.Histories[0][0] = W(0, 99)
	c.Initial[0] = 77
	c.Final[0] = 88
	if e.Histories[0][0] != W(0, 1) || e.Initial[0] != 5 || e.Final[0] != 1 {
		t.Error("Clone is not a deep copy")
	}
}
