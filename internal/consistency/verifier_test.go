package consistency

import (
	"context"
	"testing"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// TestSCWriteOrderOptInValidation: explicitly supplying write orders —
// even none — selects the constrained solver, which rejects incomplete
// order sets instead of silently searching unconstrained.
func TestSCWriteOrderOptInValidation(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.R(0, 1)},
	).SetInitial(0, 0)
	if _, err := NewVerifier(SC, solver.WithWriteOrders(nil)).Verify(context.Background(), exec); err == nil {
		t.Error("nil write orders accepted for an execution with writes")
	}
	// Without the option the unconstrained search runs.
	res, err := NewVerifier(SC).Verify(context.Background(), exec)
	if err != nil || !res.Consistent {
		t.Errorf("unconstrained SC failed: %v %+v", err, res)
	}
}

// TestParseModel pins the shared model vocabulary used by HTTP params
// and CLI flags.
func TestParseModel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Model
	}{
		{"", SC}, {"sc", SC}, {"SC", SC}, {"tso", TSO}, {"PSO", PSO},
		{"coherence", CoherenceOnly}, {"lrc", LRC}, {"vscc", VSCC},
	} {
		got, err := ParseModel(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseModel(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseModel("weird"); err == nil {
		t.Error("unknown model accepted")
	}
}
