package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"memverify/internal/coherence"
	"memverify/internal/consistency"
	"memverify/internal/trace"
)

func runSim(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code := run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestMESITraceIsCoherent(t *testing.T) {
	code, out, _ := runSim(t, "-procs", "2", "-ops", "8", "-seed", "5")
	if code != 0 {
		t.Fatalf("code=%d", code)
	}
	tr, err := trace.Read(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coherence.NewVerifier().Verify(context.Background(), tr.Exec)
	if err != nil {
		t.Fatal(err)
	}
	if bad, violated := rep.FirstViolation(); violated {
		t.Errorf("fault-free MESI trace incoherent at address %d", bad)
	}
}

func TestTSOTracePassesTSOChecker(t *testing.T) {
	code, out, _ := runSim(t, "-machine", "tso", "-procs", "2", "-ops", "6", "-seed", "7")
	if code != 0 {
		t.Fatalf("code=%d", code)
	}
	tr, err := trace.Read(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	res, err := consistency.NewVerifier(consistency.TSO).Verify(context.Background(), tr.Exec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Error("TSO machine trace rejected by TSO checker")
	}
}

func TestFaultInjectionEventuallyDetectable(t *testing.T) {
	// Across seeds, at least one drop-write run must be incoherent.
	for _, seed := range []string{"1", "2", "3", "4", "5", "6", "7", "8"} {
		code, out, _ := runSim(t, "-fault", "drop-write", "-fault-nth", "2", "-seed", seed)
		if code != 0 {
			t.Fatalf("code=%d", code)
		}
		tr, err := trace.Read(strings.NewReader(out))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := coherence.NewVerifier().Verify(context.Background(), tr.Exec)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Coherent() {
			return // detected
		}
	}
	t.Error("no seed produced a detectable violation")
}

func TestRecordOrderEmitsOrders(t *testing.T) {
	code, out, _ := runSim(t, "-record-order", "-procs", "2", "-ops", "6", "-seed", "9")
	if code != 0 {
		t.Fatalf("code=%d", code)
	}
	if !strings.Contains(out, "order ") {
		t.Errorf("no order lines:\n%s", out)
	}
	tr, err := trace.Read(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range tr.Exec.Addresses() {
		res, err := coherence.SolveWithWriteOrder(context.Background(), tr.Exec, a, tr.WriteOrders[a], nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Coherent {
			t.Errorf("recorded order rejected for address %d", a)
		}
	}
}

func TestSimtraceErrors(t *testing.T) {
	if code, _, _ := runSim(t, "-machine", "quantum"); code != 2 {
		t.Error("unknown machine accepted")
	}
	if code, _, _ := runSim(t, "-fault", "gremlins"); code != 2 {
		t.Error("unknown fault accepted")
	}
}

func TestDirectoryMachineTraceIsCoherent(t *testing.T) {
	code, out, _ := runSim(t, "-machine", "directory", "-procs", "3", "-ops", "8", "-seed", "11")
	if code != 0 {
		t.Fatalf("code=%d", code)
	}
	tr, err := trace.Read(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coherence.NewVerifier().Verify(context.Background(), tr.Exec)
	if err != nil {
		t.Fatal(err)
	}
	if bad, violated := rep.FirstViolation(); violated {
		t.Errorf("fault-free directory trace incoherent at address %d", bad)
	}
}

func TestDirectoryFaultInjection(t *testing.T) {
	for _, seed := range []string{"1", "2", "3", "4", "5", "6", "7", "8"} {
		code, out, _ := runSim(t, "-machine", "directory", "-fault", "drop-store", "-fault-nth", "2", "-seed", seed)
		if code != 0 {
			t.Fatalf("code=%d", code)
		}
		tr, err := trace.Read(strings.NewReader(out))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := coherence.NewVerifier().Verify(context.Background(), tr.Exec)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Coherent() {
			return // detected
		}
	}
	t.Error("no seed produced a detectable directory violation")
}

func TestDirectoryUnknownFault(t *testing.T) {
	if code, _, _ := runSim(t, "-machine", "directory", "-fault", "gremlins"); code != 2 {
		t.Error("unknown directory fault accepted")
	}
}
