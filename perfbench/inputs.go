package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"memverify/internal/memory"
	"memverify/internal/reduction"
	"memverify/internal/sat"
	"memverify/internal/trace"
	"memverify/internal/workload"
)

// input is one trace handed to the program, with the answer its verdict
// is checked against.
type input struct {
	id   string
	text []byte
	ops  int
	// want is true when the trace is coherent, by construction or by the
	// SAT oracle on the reduced formula.
	want bool
	// witness is a schedule that comes with the construction (nil when
	// the construction gives none). It is coherent exactly when want is.
	witness memory.Schedule
}

func traceText(exec *memory.Execution) ([]byte, error) {
	var b bytes.Buffer
	if err := trace.Write(&b, trace.New(exec)); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// relayConfig is the 10⁶-operation token relay of the fast-path
// benchmark: 1,000,799 operations coherent, 1,000,800 with the phantom
// read, about 11.4 MB of text. The decoy writes defeat the read-map
// specialist, so only the fast path decides it in polynomial time.
func relayConfig(phantom, quick bool) workload.RelayConfig {
	c := workload.RelayConfig{Processors: 4, Rounds: 13900, Decoys: 16, Phantom: phantom}
	if quick {
		c.Rounds = 60
	}
	return c
}

// relayInput builds the relay trace. It is deterministic; the seed does
// not change it.
func relayInput(phantom, quick bool) (input, error) {
	cfg := relayConfig(phantom, quick)
	exec := workload.GenerateRelay(cfg)
	text, err := traceText(exec)
	if err != nil {
		return input{}, err
	}
	id := "relay-coherent"
	if phantom {
		id = "relay-phantom"
	}
	return input{id: id, text: text, ops: exec.NumOps(), want: !phantom, witness: relayWitness(exec, cfg)}, nil
}

// relayWitness is a coherent schedule of the relay, built from its
// construction: token holders take turns, and between a holder's read
// of the incoming token and its own token write run the decoy writes of
// the next holder, which must land before the token they wait for. The
// phantom read, when present, goes last, where no write serves it.
func relayWitness(exec *memory.Execution, cfg workload.RelayConfig) memory.Schedule {
	m := len(exec.Histories)
	next := make([]int, m)
	s := make(memory.Schedule, 0, exec.NumOps())
	take := func(p, n int) {
		for ; n > 0; n-- {
			s = append(s, memory.Ref{Proc: p, Index: next[p]})
			next[p]++
		}
	}
	take(0, cfg.Decoys)
	for r := 0; r < cfg.Rounds; r++ {
		for i := 0; i < m; i++ {
			if r > 0 || i > 0 {
				take(i, 1)
			}
			switch {
			case i+1 < m:
				take(i+1, cfg.Decoys)
			case r+1 < cfg.Rounds:
				take(0, cfg.Decoys)
			}
			take(i, 1)
		}
	}
	for p, h := range exec.Histories {
		take(p, len(h)-next[p])
	}
	return s
}

// reductionShape is one of the paper's NP-hardness constructions with
// the formula size it is fed.
type reductionShape struct {
	fig     string
	vars    int
	clauses int
	build   func(*sat.Formula) (*reduction.VMCInstance, error)
}

// reductionShapes is the cohort cycle: two Figure 4.1 instances for
// each Figure 5.2 and Figure 5.1 one. The sizes keep the median verdict
// at a few milliseconds, so a 10 s run verifies two to three thousand
// instances and its p99 has twenty or more samples beyond it, while the
// exact search still does nearly all the work.
var reductionShapes = []reductionShape{
	{"fig4.1", 4, 10, reduction.SATToVMC},
	{"fig4.1", 4, 10, reduction.SATToVMC},
	{"fig5.2", 6, 14, reduction.ThreeSATToVMCRMW},
	{"fig5.1", 2, 4, reduction.ThreeSATToVMCRestricted},
}

// randomFormula draws clauses of one to three literals.
func randomFormula(rng *rand.Rand, vars, clauses int) *sat.Formula {
	f := &sat.Formula{NumVars: vars}
	for j := 0; j < clauses; j++ {
		c := make(sat.Clause, 1+rng.Intn(3))
		for k := range c {
			c[k] = sat.Lit(1 + rng.Intn(vars))
			if rng.Intn(2) == 0 {
				c[k] = c[k].Neg()
			}
		}
		f.Clauses = append(f.Clauses, c)
	}
	return f
}

// reductionInputs generates n reduction instances from seed. The known
// answer is the DPLL solver's verdict on the source formula: each
// construction is coherent exactly when its formula is satisfiable.
func reductionInputs(seed int64, n int) ([]input, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]input, 0, n)
	for i := 0; i < n; i++ {
		sh := reductionShapes[i%len(reductionShapes)]
		f := randomFormula(rng, sh.vars, sh.clauses)
		inst, err := sh.build(f)
		if err != nil {
			return nil, fmt.Errorf("%s instance %d: %w", sh.fig, i, err)
		}
		res, err := sat.SolveDPLL(f)
		if err != nil {
			return nil, fmt.Errorf("%s instance %d: oracle: %w", sh.fig, i, err)
		}
		text, err := traceText(inst.Exec)
		if err != nil {
			return nil, err
		}
		out = append(out, input{id: fmt.Sprintf("%s/%d", sh.fig, i), text: text, ops: inst.Exec.NumOps(), want: res.Satisfiable})
	}
	return out, nil
}

// serviceInput generates one request trace in memverifyd's loadgen
// shape: 3–4 processors of 12–23 operations over 3–5 addresses and 4
// values, coherent by construction (it is sequentially consistent).
// When mutate is set it carries a phantom value or a wrong final value,
// the two mutations that are incoherent by construction; the loadgen's
// other two are not guaranteed violations, so they are not used.
func serviceInput(rng *rand.Rand, id string, mutate bool) (input, error) {
	exec, _ := workload.GenerateCoherent(rng, workload.GenConfig{
		Processors: 3 + rng.Intn(2),
		OpsPerProc: 12 + rng.Intn(12),
		Addresses:  3 + rng.Intn(3),
		Values:     4,
	})
	want := true
	if mutate {
		kinds := []workload.ViolationKind{workload.ViolationPhantomValue, workload.ViolationWrongFinal}
		if rng.Intn(2) == 1 {
			kinds[0], kinds[1] = kinds[1], kinds[0]
		}
		var err error
		var mut *memory.Execution
		for _, k := range kinds {
			if mut, err = workload.Inject(rng, exec, k); err == nil {
				break
			}
		}
		if err != nil {
			return input{}, fmt.Errorf("request %s: %w", id, err)
		}
		exec, want = mut, false
	}
	text, err := traceText(exec)
	if err != nil {
		return input{}, err
	}
	return input{id: id, text: text, ops: exec.NumOps(), want: want}, nil
}

// serviceInputs generates n request traces; every third is mutated.
func serviceInputs(rng *rand.Rand, n int) ([]input, error) {
	out := make([]input, n)
	for i := range out {
		in, err := serviceInput(rng, fmt.Sprintf("req%d", i), i%3 == 1)
		if err != nil {
			return nil, err
		}
		out[i] = in
	}
	return out, nil
}
