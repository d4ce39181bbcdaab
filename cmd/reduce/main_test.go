package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"memverify/internal/coherence"
	"memverify/internal/consistency"
	"memverify/internal/solver"
	"memverify/internal/trace"
)

func runReduce(t *testing.T, args []string, input string) (int, string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code := run(args, strings.NewReader(input), &out, &errBuf)
	return code, out.String()
}

const satCNF = "p cnf 2 2\n1 2 0\n-1 0\n"
const unsatCNF = "p cnf 1 2\n1 0\n-1 0\n"

func TestReduceVMCPipeline(t *testing.T) {
	for _, target := range []string{"vmc", "vmc-restricted", "vmc-rmw"} {
		target := target
		t.Run(target, func(t *testing.T) {
			code, out := runReduce(t, []string{"-to", target}, satCNF)
			if code != 0 {
				t.Fatalf("code=%d", code)
			}
			tr, err := trace.Read(strings.NewReader(out))
			if err != nil {
				t.Fatal(err)
			}
			res, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), tr.Exec, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Coherent {
				t.Error("satisfiable formula produced incoherent instance")
			}

			code, out = runReduce(t, []string{"-to", target}, unsatCNF)
			if code != 0 {
				t.Fatalf("code=%d", code)
			}
			tr, err = trace.Read(strings.NewReader(out))
			if err != nil {
				t.Fatal(err)
			}
			res, err = coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), tr.Exec, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Coherent {
				t.Error("unsatisfiable formula produced coherent instance")
			}
		})
	}
}

func TestReduceWideClauseConversion(t *testing.T) {
	wide := "p cnf 4 1\n1 2 3 4 0\n"
	code, out := runReduce(t, []string{"-to", "vmc-restricted"}, wide)
	if code != 0 {
		t.Fatalf("code=%d", code)
	}
	tr, err := trace.Read(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	res, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), tr.Exec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Coherent {
		t.Error("wide satisfiable clause produced incoherent instance")
	}
}

func TestReduceVSCC(t *testing.T) {
	code, out := runReduce(t, []string{"-to", "vscc"}, satCNF)
	if code != 0 {
		t.Fatalf("code=%d", code)
	}
	tr, err := trace.Read(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	res, err := consistency.NewVerifier(consistency.VSCC).Verify(context.Background(), tr.Exec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Error("satisfiable formula produced non-SC VSCC instance")
	}
}

func TestReduceSync(t *testing.T) {
	code, out := runReduce(t, []string{"-to", "vmc-sync"}, satCNF)
	if code != 0 {
		t.Fatalf("code=%d", code)
	}
	tr, err := trace.Read(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if d := consistency.CheckDiscipline(tr.Exec); d != consistency.FullySynchronized {
		t.Errorf("discipline = %v", d)
	}
}

func TestReduceErrors(t *testing.T) {
	if code, _ := runReduce(t, []string{"-to", "bogus"}, satCNF); code != 2 {
		t.Error("unknown target accepted")
	}
	if code, _ := runReduce(t, nil, "garbage"); code != 2 {
		t.Error("bad DIMACS accepted")
	}
	// VSCC rejects empty clauses.
	if code, _ := runReduce(t, []string{"-to", "vscc"}, "p cnf 1 1\n0\n"); code != 2 {
		t.Error("empty clause accepted by vscc")
	}
}
