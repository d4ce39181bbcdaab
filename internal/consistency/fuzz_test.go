package consistency

import (
	"context"
	"reflect"
	"testing"

	"memverify/internal/coherence"
	"memverify/internal/memory"
	"memverify/internal/reduction"
	"memverify/internal/sat"
	"memverify/internal/solver"
)

// Fuzz executions are small enough for the brute-force oracle: at most
// 3 processes of 4 operations over 2 addresses and 3 values.
const (
	fuzzProcs  = 3
	fuzzOps    = 4
	fuzzAddrs  = 2
	fuzzValues = 3
)

// decodeExecution maps fuzz bytes to an execution. Byte 0 picks the
// process and address counts; then per process a length byte and one
// byte per op (kind = b%4 of R, W, RMW, Fence; address b/4%2; value
// b/8%3; an RMW takes its stored value from the next byte); then a flag
// byte whose bits declare an initial and a final value per address, each
// taken from the next byte. Missing bytes read as zero.
func decodeExecution(data []byte) *memory.Execution {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	hdr := next()
	nproc, naddr := 1+int(hdr%fuzzProcs), 1+int(hdr/fuzzProcs%fuzzAddrs)
	exec := &memory.Execution{}
	for p := 0; p < nproc; p++ {
		var h memory.History
		for i := int(next() % (fuzzOps + 1)); i > 0; i-- {
			b := next()
			a := memory.Addr(int(b/4) % naddr)
			v := memory.Value(b / 8 % fuzzValues)
			switch b % 4 {
			case 0:
				h = append(h, memory.R(a, v))
			case 1:
				h = append(h, memory.W(a, v))
			case 2:
				h = append(h, memory.RW(a, v, memory.Value(next()%fuzzValues)))
			default:
				h = append(h, memory.Bar())
			}
		}
		exec.Histories = append(exec.Histories, h)
	}
	flags := next()
	for a := 0; a < naddr; a++ {
		if flags&(1<<a) != 0 {
			exec.SetInitial(memory.Addr(a), memory.Value(next()%fuzzValues))
		}
		if flags&(4<<a) != 0 {
			exec.SetFinal(memory.Addr(a), memory.Value(next()%fuzzValues))
		}
	}
	return exec
}

// encodeExecution is decodeExecution's inverse for the seed corpus.
func encodeExecution(exec *memory.Execution) []byte {
	naddr := 1
	for _, a := range exec.Addresses() {
		naddr = max(naddr, int(a)+1)
	}
	out := []byte{byte(len(exec.Histories) - 1 + fuzzProcs*(naddr-1))}
	for _, h := range exec.Histories {
		out = append(out, byte(len(h)))
		for _, o := range h {
			b := byte(o.Addr)*4 + byte(o.Data)*8
			switch o.Kind {
			case memory.Read:
				out = append(out, b)
			case memory.Write:
				out = append(out, b+1)
			case memory.ReadModifyWrite:
				out = append(out, b+2, byte(o.Store))
			default:
				out = append(out, 3)
			}
		}
	}
	var flags byte
	var vals []byte
	for a := 0; a < naddr; a++ {
		if d, ok := exec.Initial[memory.Addr(a)]; ok {
			flags |= 1 << a
			vals = append(vals, byte(d))
		}
		if d, ok := exec.Final[memory.Addr(a)]; ok {
			flags |= 4 << a
			vals = append(vals, byte(d))
		}
	}
	return append(append(out, flags), vals...)
}

// singleAddress reports whether every operation of exec is a memory
// operation at one address, which it returns, and no other address
// declares a final value (SC must meet it; the address's VMC instance
// does not see it).
func singleAddress(exec *memory.Execution) (memory.Addr, bool) {
	addrs := exec.Addresses()
	if len(addrs) != 1 {
		return 0, false
	}
	for a := range exec.Final {
		if a != addrs[0] {
			return 0, false
		}
	}
	for _, h := range exec.Histories {
		for _, o := range h {
			if !o.IsMemory() {
				return 0, false
			}
		}
	}
	return addrs[0], true
}

// FuzzSearchAgreement holds every decision procedure to the others on
// one small execution: SC against brute force, its certificates against
// memory.CheckSC, the memo-off and ∥2 searches against the default, SC
// against the exact rung (the same kernel through two entry points),
// the model lattice SC ⇒ TSO ⇒ PSO and SC ⇒ coherence, SC under its own
// certificate's write orders, and VSCC against SC under the coherence
// promise.
func FuzzSearchAgreement(f *testing.F) {
	for _, exec := range []*memory.Execution{
		dekkerExecution(),
		messagePassingStale(),
		memory.NewExecution(
			memory.History{memory.W(0, 1), memory.W(1, 1)},
			memory.History{memory.R(1, 1), memory.R(0, 1)},
		).SetInitial(0, 0).SetInitial(1, 0),
		memory.NewExecution(
			memory.History{memory.W(0, 1)},
			memory.History{memory.W(0, 2)},
		).SetInitial(0, 0).SetFinal(0, 1),
		memory.NewExecution(
			memory.History{memory.W(0, 1), memory.Bar(), memory.R(1, 0)},
			memory.History{memory.W(1, 1), memory.Bar(), memory.R(0, 0)},
		).SetInitial(0, 0).SetInitial(1, 0),
		memory.NewExecution(
			memory.History{memory.RW(0, 0, 1), memory.R(0, 2)},
			memory.History{memory.RW(0, 1, 2), memory.W(0, 0)},
			memory.History{memory.R(0, 1), memory.R(0, 0)},
		).SetInitial(0, 0),
	} {
		f.Add(encodeExecution(exec))
	}
	ctx := context.Background()
	verify := func(t *testing.T, m Model, exec *memory.Execution, opts ...solver.ConfigOption) *Result {
		t.Helper()
		res, err := NewVerifier(m, opts...).Verify(ctx, exec)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		return res
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		exec := decodeExecution(data)
		sc := verify(t, SC, exec)
		if exec.NumOps() <= 10 {
			if want := bruteForceSC(exec); sc.Consistent != want {
				t.Fatalf("SC = %v, brute force %v\n%v init=%v final=%v", sc.Consistent, want, exec.Histories, exec.Initial, exec.Final)
			}
		}
		if sc.Consistent {
			if err := memory.CheckSC(exec, sc.Schedule); err != nil {
				t.Fatalf("SC certificate rejected: %v", err)
			}
		}
		for _, o := range []*solver.Options{solver.New(solver.WithoutMemoization()), solver.New(solver.WithParallelSearch(2))} {
			if got := verify(t, SC, exec, solver.WithOptions(o)); got.Consistent != sc.Consistent {
				t.Fatalf("SC under %+v = %v, default %v", *o, got.Consistent, sc.Consistent)
			}
		}
		if addr, ok := singleAddress(exec); ok {
			ex, err := coherence.NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(ctx, exec, addr)
			if err != nil {
				t.Fatal(err)
			}
			scStats, exStats := sc.Stats, ex.Stats
			scStats.Duration, exStats.Duration = 0, 0
			if ex.Coherent != sc.Consistent || scStats != exStats || !reflect.DeepEqual(ex.Schedule, sc.Schedule) {
				t.Fatalf("SC and the exact rung disagree:\n SC    %v %+v %v\n exact %v %+v %v",
					sc.Consistent, scStats, sc.Schedule, ex.Coherent, exStats, ex.Schedule)
			}
		}
		tso, pso := verify(t, TSO, exec), verify(t, PSO, exec)
		coh := verify(t, CoherenceOnly, exec)
		if sc.Consistent && !(tso.Consistent && pso.Consistent && coh.Consistent) {
			t.Fatalf("SC accepts but TSO=%v PSO=%v coherence=%v", tso.Consistent, pso.Consistent, coh.Consistent)
		}
		if tso.Consistent && !pso.Consistent {
			t.Fatal("TSO accepts but PSO rejects")
		}
		if sc.Consistent {
			if got := verify(t, SC, exec, solver.WithWriteOrders(ordersFromSchedule(exec, sc.Schedule))); !got.Consistent {
				t.Fatal("SC rejects under its own certificate's write orders")
			}
		}
		if coh.Consistent {
			if got := verify(t, VSCC, exec); got.Consistent != sc.Consistent {
				t.Fatalf("VSCC = %v, SC %v under the coherence promise", got.Consistent, sc.Consistent)
			}
		}
	})
}

// TestSCZeroAllocPerState is the allocation guard for SC on the kernel:
// a solve of thousands of states costs only the fixed per-solve
// allocations, within the exact rung's per-solve budget (see
// coherence's TestPackedSearchZeroAllocPerState).
func TestSCZeroAllocPerState(t *testing.T) {
	inst, err := reduction.SATToVMC(sat.NewFormula(sat.Clause{1, 2}, sat.Clause{-1, 2}, sat.Clause{1, -2},
		sat.Clause{-1, -2}, sat.Clause{3, 4}, sat.Clause{-3, 4}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res := mustVerify(t, ctx, inst.Exec)
	if res.Consistent || res.Stats.States < 3000 {
		t.Fatalf("want an exhaustive search of ≥ 3000 states, got consistent=%v after %d", res.Consistent, res.Stats.States)
	}
	allocs := testing.AllocsPerRun(10, func() { mustVerify(t, ctx, inst.Exec) })
	const perSolveBudget = 200
	if allocs > perSolveBudget {
		t.Errorf("%.0f allocs for a %d-state SC solve (%.3f/state); the kernel must not allocate per state",
			allocs, res.Stats.States, allocs/float64(res.Stats.States))
	}
}

func mustVerify(t *testing.T, ctx context.Context, exec *memory.Execution) *Result {
	t.Helper()
	res, err := NewVerifier(SC).Verify(ctx, exec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
