package coherence

import (
	"context"
	"math/rand"
	"testing"

	"memverify/internal/memory"
)

func TestReadMapBasic(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.R(0, 2)},
		memory.History{memory.W(0, 2), memory.R(0, 1)},
	).SetInitial(0, 0)
	// R(2) needs W(2) before it and R(1) needs W(1) before it, but the
	// clusters {W1,R1} and {W2,R2} cross: W1 < R2's cluster boundary...
	// cluster(1) -> cluster(2) (P0) and cluster(2) -> cluster(1) (P1):
	// cycle, incoherent.
	res, err := SolveReadMap(context.Background(), exec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coherent {
		t.Error("cyclic cluster instance accepted")
	}

	ok := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.R(0, 2)},
		memory.History{memory.R(0, 1), memory.W(0, 2)},
	).SetInitial(0, 0)
	res, err = SolveReadMap(context.Background(), ok, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Coherent {
		t.Error("acyclic cluster instance rejected")
	}
	if err := memory.CheckCoherent(ok, 0, res.Schedule); err != nil {
		t.Errorf("invalid certificate: %v", err)
	}
}

func TestReadMapRejectsDuplicateWrites(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.W(0, 1)},
	)
	if _, err := SolveReadMap(context.Background(), exec, 0); err == nil {
		t.Error("duplicate writes accepted by the read-map algorithm")
	}
}

func TestReadMapAmbiguousInitial(t *testing.T) {
	// Initial value 1 is also written; a read of 1 makes the map
	// ambiguous.
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1)},
		memory.History{memory.R(0, 1)},
	).SetInitial(0, 1)
	if _, err := SolveReadMap(context.Background(), exec, 0); err == nil {
		t.Error("ambiguous initial-value instance accepted")
	}
	// The auto preset must still answer, via the general solver.
	res, err := NewVerifier().Solve(context.Background(), exec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Coherent {
		t.Error("the auto preset failed on the ambiguous corner")
	}
}

func TestReadMapUnboundInitialAmbiguity(t *testing.T) {
	// No declared initial value: R(5) in a write-free prefix could bind
	// the initial value instead of reading P1's W(5); the read-map is not
	// forced and the solver must refuse.
	exec := memory.NewExecution(
		memory.History{memory.R(0, 5), memory.W(0, 9)},
		memory.History{memory.R(0, 9), memory.W(0, 5)},
	)
	if _, err := SolveReadMap(context.Background(), exec, 0); err == nil {
		t.Error("unbound-initial ambiguity not detected")
	}
	// The instance is genuinely coherent via initial binding; SolveAuto
	// must find it.
	res, err := NewVerifier().Solve(context.Background(), exec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Coherent {
		t.Error("SolveAuto missed the initial-binding schedule")
	}
}

func TestReadMapInitialReads(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.R(0, 7), memory.W(0, 1)},
		memory.History{memory.R(0, 7), memory.R(0, 1)},
	).SetInitial(0, 7)
	res, err := SolveReadMap(context.Background(), exec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Coherent {
		t.Fatal("initial reads before the only write rejected")
	}
	if err := memory.CheckCoherent(exec, 0, res.Schedule); err != nil {
		t.Errorf("invalid certificate: %v", err)
	}

	// An initial-cluster read after the history's own write: W(1) R(7) —
	// incoherent, 7 is no longer in force.
	bad := memory.NewExecution(
		memory.History{memory.W(0, 1), memory.R(0, 7)},
	).SetInitial(0, 7)
	res, err = SolveReadMap(context.Background(), bad, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coherent {
		t.Error("initial read after a write accepted")
	}
}

func TestReadMapReadBeforeOwnSourceWrite(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.R(0, 1), memory.W(0, 1)},
	).SetInitial(0, 0)
	res, err := SolveReadMap(context.Background(), exec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coherent {
		t.Error("read scheduled before its only possible source accepted")
	}
}

func TestReadMapFinalValue(t *testing.T) {
	exec := memory.NewExecution(
		memory.History{memory.W(0, 1)},
		memory.History{memory.W(0, 2)},
	).SetInitial(0, 0).SetFinal(0, 2)
	res, err := SolveReadMap(context.Background(), exec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Coherent {
		t.Fatal("satisfiable final value rejected")
	}
	if err := memory.CheckCoherent(exec, 0, res.Schedule); err != nil {
		t.Errorf("invalid certificate: %v", err)
	}

	// Final value must be a sink: here cluster(2) must precede cluster(1)
	// (program order), so 2 cannot be final.
	chained := memory.NewExecution(
		memory.History{memory.W(0, 2), memory.W(0, 1)},
	).SetInitial(0, 0).SetFinal(0, 2)
	res, err = SolveReadMap(context.Background(), chained, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coherent {
		t.Error("non-sink final cluster accepted")
	}

	// Final value never written.
	missing := memory.NewExecution(
		memory.History{memory.W(0, 1)},
	).SetInitial(0, 0).SetFinal(0, 9)
	res, err = SolveReadMap(context.Background(), missing, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coherent {
		t.Error("unwritten final value accepted")
	}
}

func TestReadMapRMWChains(t *testing.T) {
	// RMWs fuse clusters: 0 -> 1 -> 2 with interleaved plain ops.
	exec := memory.NewExecution(
		memory.History{memory.RW(0, 0, 1), memory.R(0, 2)},
		memory.History{memory.R(0, 1), memory.RW(0, 1, 2)},
	).SetInitial(0, 0)
	res, err := SolveReadMap(context.Background(), exec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Coherent {
		t.Fatal("coherent RMW chain rejected")
	}
	if err := memory.CheckCoherent(exec, 0, res.Schedule); err != nil {
		t.Errorf("invalid certificate: %v", err)
	}

	// Two RMWs consuming the same value: incoherent.
	clash := memory.NewExecution(
		memory.History{memory.RW(0, 0, 1)},
		memory.History{memory.RW(0, 0, 2)},
	).SetInitial(0, 0)
	res, err = SolveReadMap(context.Background(), clash, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coherent {
		t.Error("two RMWs consuming one value accepted")
	}

	// Chain cycle: RW(1,2) and RW(2,1) can never start.
	cycle := memory.NewExecution(
		memory.History{memory.RW(0, 1, 2)},
		memory.History{memory.RW(0, 2, 1)},
	).SetInitial(0, 0)
	res, err = SolveReadMap(context.Background(), cycle, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coherent {
		t.Error("cyclic RMW chain accepted")
	}
}

// Property: on random unique-write instances the read-map algorithm
// agrees with the brute-force oracle (when its preconditions hold).
func TestReadMapMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	checked := 0
	for i := 0; i < 600; i++ {
		exec := uniqueWriteInstance(rng)
		res, err := SolveReadMap(context.Background(), exec, 0)
		if err != nil {
			continue // ambiguous corner; SolveAuto covers it elsewhere
		}
		checked++
		want, _ := bruteForceCoherent(exec, 0)
		if res.Coherent != want {
			t.Fatalf("instance %d: SolveReadMap=%v oracle=%v\nhistories=%v init=%v final=%v",
				i, res.Coherent, want, exec.Histories, exec.Initial, exec.Final)
		}
		if res.Coherent {
			if err := memory.CheckCoherent(exec, 0, res.Schedule); err != nil {
				t.Fatalf("instance %d: invalid certificate: %v", i, err)
			}
		}
	}
	if checked < 100 {
		t.Errorf("only %d instances exercised the algorithm", checked)
	}
}

// uniqueWriteInstance generates a random instance in which every value is
// written at most once.
func uniqueWriteInstance(rng *rand.Rand) *memory.Execution {
	nproc := 1 + rng.Intn(3)
	exec := &memory.Execution{}
	nextVal := memory.Value(10)
	written := []memory.Value{}
	readable := func() memory.Value {
		// Mix of written values, the initial value, and junk.
		switch rng.Intn(4) {
		case 0:
			return 0 // initial value
		case 1:
			return memory.Value(1 + rng.Intn(3)) // probably unwritten
		default:
			if len(written) == 0 {
				return 0
			}
			return written[rng.Intn(len(written))]
		}
	}
	for p := 0; p < nproc; p++ {
		nops := rng.Intn(4)
		var h memory.History
		for i := 0; i < nops; i++ {
			switch rng.Intn(3) {
			case 0:
				h = append(h, memory.R(0, readable()))
			case 1:
				h = append(h, memory.W(0, nextVal))
				written = append(written, nextVal)
				nextVal++
			default:
				h = append(h, memory.RW(0, readable(), nextVal))
				written = append(written, nextVal)
				nextVal++
			}
		}
		exec.Histories = append(exec.Histories, h)
	}
	exec.SetInitial(0, 0)
	if rng.Intn(3) == 0 && len(written) > 0 {
		exec.SetFinal(0, written[rng.Intn(len(written))])
	}
	return exec
}
