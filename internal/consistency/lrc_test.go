package consistency

import (
	"context"
	"testing"

	"memverify/internal/memory"
)

// wrap brackets every memory op of a history with Acquire/Release, as in
// Figure 6.1.
func wrap(h memory.History) memory.History {
	var out memory.History
	for _, o := range h {
		out = append(out, memory.Acq(), o, memory.Rel())
	}
	return out
}

func TestCheckDiscipline(t *testing.T) {
	full := memory.NewExecution(
		wrap(memory.History{memory.W(0, 1), memory.R(0, 1)}),
	)
	if d := CheckDiscipline(full); d != FullySynchronized {
		t.Errorf("discipline = %v, want FullySynchronized", d)
	}
	partial := memory.NewExecution(
		memory.History{memory.Acq(), memory.W(0, 1), memory.Rel(), memory.R(0, 1)},
	)
	if d := CheckDiscipline(partial); d != PartiallySynchronized {
		t.Errorf("discipline = %v, want PartiallySynchronized", d)
	}
	none := memory.NewExecution(
		memory.History{memory.W(0, 1)},
	)
	if d := CheckDiscipline(none); d != Unsynchronized {
		t.Errorf("discipline = %v, want Unsynchronized", d)
	}
}

func TestDisciplineString(t *testing.T) {
	cases := map[SynchronizationDiscipline]string{
		FullySynchronized:     "fully-synchronized",
		PartiallySynchronized: "partially-synchronized",
		Unsynchronized:        "unsynchronized",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", d, got, want)
		}
	}
}

func TestVerifyLRCCoherentExecution(t *testing.T) {
	exec := memory.NewExecution(
		wrap(memory.History{memory.W(0, 1)}),
		wrap(memory.History{memory.R(0, 1)}),
	).SetInitial(0, 0)
	res, err := NewVerifier(LRC).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Error("coherent synchronized execution rejected")
	}
}

func TestVerifyLRCIncoherentExecution(t *testing.T) {
	exec := memory.NewExecution(
		wrap(memory.History{memory.R(0, 5)}),
	).SetInitial(0, 0)
	res, err := NewVerifier(LRC).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Consistent {
		t.Error("incoherent synchronized execution accepted")
	}
}

func TestVerifyLRCRequiresDiscipline(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1)},
	)
	if _, err := NewVerifier(LRC).Verify(context.Background(), exec); err == nil {
		t.Error("unsynchronized execution accepted by VerifyLRC")
	}
}

func TestVerifyDispatchLRC(t *testing.T) {
	exec := memory.NewExecution(
		wrap(memory.History{memory.W(0, 1)}),
		wrap(memory.History{memory.R(0, 1)}),
	).SetInitial(0, 0)
	res, err := NewVerifier(LRC).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Error("Verify(context.Background(), LRC) rejected a coherent synchronized execution")
	}
}
