// Cross-module integration tests: the full pipelines a user of the
// repository runs, exercised end to end — simulator to trace file to
// verifier, formula to reduction to verifier to decoded assignment, and
// relaxed machine to model checkers.
package memverify_test

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"memverify/internal/coherence"
	"memverify/internal/consistency"
	"memverify/internal/memory"
	"memverify/internal/mesi"
	"memverify/internal/reduction"
	"memverify/internal/sat"
	"memverify/internal/solver"
	"memverify/internal/trace"
	"memverify/internal/tsomachine"
	"memverify/internal/workload"
)

// MESI simulator -> trace serialization -> parse -> verify, with and
// without an injected fault.
func TestPipelineSimulatorToVerifier(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 15; i++ {
		sys := mesi.New(mesi.Config{Processors: 3})
		prog := mesi.RandomProgram(rng, 3, 10, 3, 0.4, 0.1)
		exec := mesi.Run(sys, prog, rng)

		var buf bytes.Buffer
		if err := trace.Write(&buf, trace.New(exec)); err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := coherence.NewVerifier().Verify(context.Background(), tr.Exec)
		if err != nil {
			t.Fatal(err)
		}
		if bad, violated := rep.FirstViolation(); violated {
			t.Fatalf("run %d: healthy trace flagged at address %d after round trip", i, bad)
		}
	}
}

// Formula -> DIMACS -> parse -> reduce -> solve -> decode -> check, the
// full satbridge loop, across all single-address constructions.
func TestPipelineFormulaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	builders := map[string]func(*sat.Formula) (*reduction.VMCInstance, error){
		"fig4.1": reduction.SATToVMC,
		"fig5.1": reduction.ThreeSATToVMCRestricted,
		"fig5.2": reduction.ThreeSATToVMCRMW,
	}
	for name, build := range builders {
		name, build := name, build
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 15; i++ {
				q := sat.RandomKSAT(rng, 1+rng.Intn(3), 1+rng.Intn(4), 3)
				var buf bytes.Buffer
				if err := sat.WriteDIMACS(&buf, q); err != nil {
					t.Fatal(err)
				}
				parsed, err := sat.ReadDIMACS(&buf)
				if err != nil {
					t.Fatal(err)
				}
				inst, err := build(parsed)
				if err != nil {
					t.Fatal(err)
				}
				res, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), inst.Exec, inst.Addr)
				if err != nil {
					t.Fatal(err)
				}
				want, err := sat.SolveBrute(parsed)
				if err != nil {
					t.Fatal(err)
				}
				if res.Coherent != want.Satisfiable {
					t.Fatalf("run %d: coherent=%v satisfiable=%v\n%s", i, res.Coherent, want.Satisfiable, parsed)
				}
				if res.Coherent {
					asg, err := inst.DecodeAssignment(res.Schedule)
					if err != nil {
						t.Fatal(err)
					}
					if !asg.Satisfies(parsed) {
						t.Fatalf("run %d: decoded assignment invalid", i)
					}
				}
			}
		})
	}
}

// TSO machine traces, serialized and re-parsed, pass the TSO checker and
// respect the model hierarchy.
func TestPipelineRelaxedMachineToCheckers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 15; i++ {
		m := tsomachine.New(2, tsomachine.TSO)
		prog := mesi.RandomProgram(rng, 2, 6, 2, 0.5, 0.05)
		exec := tsomachine.Run(m, prog, rng, 0.25)

		var buf bytes.Buffer
		if err := trace.Write(&buf, trace.New(exec)); err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		res, err := consistency.NewVerifier(consistency.TSO).Verify(context.Background(), tr.Exec)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Consistent {
			t.Fatalf("run %d: TSO trace rejected after serialization round trip", i)
		}
	}
}

// Injected trace-level violations survive serialization and are
// detected identically before and after.
func TestPipelineViolationStability(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 30; i++ {
		exec, _ := workload.GenerateCoherent(rng, workload.GenConfig{
			Processors: 3, OpsPerProc: 8, Addresses: 2, Values: 3, WriteFraction: 0.4,
		})
		kind := workload.ViolationKinds()[i%len(workload.ViolationKinds())]
		mut, err := workload.Inject(rng, exec, kind)
		if err != nil {
			continue
		}
		v := coherence.NewVerifier()
		rep, err := v.Verify(context.Background(), mut)
		if err != nil {
			t.Fatal(err)
		}
		before := rep.Coherent()
		var buf bytes.Buffer
		if err := trace.Write(&buf, trace.New(mut)); err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		rep, err = v.Verify(context.Background(), tr.Exec)
		if err != nil {
			t.Fatal(err)
		}
		after := rep.Coherent()
		if before != after {
			t.Fatalf("run %d (%v): verdict changed across serialization: %v -> %v", i, kind, before, after)
		}
	}
}

// The VSCC construction behaves across the whole stack: reduce,
// serialize, re-parse, check the promise, decide SC.
func TestPipelineVSCC(t *testing.T) {
	q := sat.NewFormula(sat.Clause{1, -2}, sat.Clause{2})
	inst, err := reduction.SATToVSCC(q)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, trace.New(inst.Exec)); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Addresses may be renumbered by the parser; the verdicts must hold
	// regardless.
	res, err := consistency.NewVerifier(consistency.VSCC).Verify(context.Background(), tr.Exec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Error("satisfiable VSCC instance rejected after round trip")
	}
	if err := memory.CheckSC(tr.Exec, res.Schedule); err != nil {
		t.Error(err)
	}
}
