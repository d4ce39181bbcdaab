package directory

import (
	"context"
	"math/rand"
	"testing"

	"memverify/internal/coherence"
	"memverify/internal/consistency"
	"memverify/internal/memory"
	"memverify/internal/mesi"
)

func TestBasicReadWrite(t *testing.T) {
	s := New(Config{Nodes: 2})
	s.SetInitial(0, 9)
	if got := s.Read(0, 0); got != 9 {
		t.Errorf("read %d, want 9", got)
	}
	s.Write(1, 0, 5)
	if got := s.Read(0, 0); got != 5 {
		t.Errorf("read %d after remote write, want 5", got)
	}
	if got := s.Read(1, 0); got != 5 {
		t.Errorf("owner read %d, want 5", got)
	}
}

func TestRMWAtomic(t *testing.T) {
	s := New(Config{Nodes: 2})
	s.Write(0, 0, 1)
	if old := s.RMW(1, 0, 2); old != 1 {
		t.Errorf("RMW read %d, want 1", old)
	}
	if got := s.Read(0, 0); got != 2 {
		t.Errorf("read %d, want 2", got)
	}
}

func TestEvictWritesBack(t *testing.T) {
	s := New(Config{Nodes: 2})
	s.Write(0, 0, 7)
	s.Evict(0, 0)
	if got := s.Read(1, 0); got != 7 {
		t.Errorf("read %d after eviction, want 7", got)
	}
	if s.Stats().Writebacks == 0 {
		t.Error("expected a writeback")
	}
	// Evicting an invalid line is a no-op.
	s.Evict(0, 99)
}

func TestInvariantsHoldStepwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := New(Config{Nodes: 4})
	for step := 0; step < 3000; step++ {
		node := rng.Intn(4)
		a := memory.Addr(rng.Intn(5))
		switch rng.Intn(4) {
		case 0:
			s.Read(node, a)
		case 1:
			s.Write(node, a, memory.Value(step))
		case 2:
			s.RMW(node, a, memory.Value(step))
		default:
			s.Evict(node, a)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

func TestCorrectProtocolProducesSCTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 25; i++ {
		s := New(Config{Nodes: 3})
		prog := mesi.RandomProgram(rng, 3, 6, 3, 0.4, 0.1)
		exec := run(s, prog, rng)
		rep, err := coherence.NewVerifier().Verify(context.Background(), exec)
		if err != nil {
			t.Fatal(err)
		}
		if bad, violated := rep.FirstViolation(); violated {
			t.Fatalf("run %d: incoherent at address %d\n%v", i, bad, exec.Histories)
		}
		res, err := consistency.NewVerifier(consistency.SC).Verify(context.Background(), exec)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Consistent {
			t.Fatalf("run %d: not SC\n%v", i, exec.Histories)
		}
	}
}

// run executes a program on the directory system with random
// interleaving and occasional random evictions.
func run(s *System, p mesi.Program, rng *rand.Rand) *memory.Execution {
	pos := make([]int, len(p))
	remaining := 0
	for _, insts := range p {
		remaining += len(insts)
	}
	for remaining > 0 {
		node := rng.Intn(len(p))
		if rng.Intn(8) == 0 {
			s.Evict(node, memory.Addr(rng.Intn(3)))
			continue
		}
		if pos[node] >= len(p[node]) {
			continue
		}
		in := p[node][pos[node]]
		pos[node]++
		remaining--
		switch in.Kind {
		case mesi.InstrRead:
			s.Read(node, in.Addr)
		case mesi.InstrWrite:
			s.Write(node, in.Addr, in.Value)
		case mesi.InstrRMW:
			s.RMW(node, in.Addr, in.Value)
		}
	}
	return s.Execution(true)
}

func TestForgetSharerDetected(t *testing.T) {
	// Node 1 holds a shared copy; node 0's upgrade invalidation is lost;
	// node 1's RMW then acts on stale data.
	s := New(Config{Nodes: 2, Faults: Once(FaultForgetSharer, 1)})
	s.Write(0, 0, 1)
	s.Read(1, 0)     // node 1 shares value 1
	s.Write(0, 0, 2) // invalidation to node 1 dropped
	s.RMW(1, 0, 3)   // stale atomic
	exec := s.Execution(true)
	rep, err := coherence.NewVerifier().Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coherent() {
		t.Errorf("forgotten sharer not detected\nP0=%v P1=%v final=%v",
			exec.Histories[0], exec.Histories[1], exec.Final)
	}
}

func TestWrongSourceDetected(t *testing.T) {
	s := New(Config{Nodes: 2, Faults: Once(FaultWrongSource, 1)})
	s.Write(0, 0, 1) // node 0 owns dirty value 1
	s.Read(1, 0)     // fetch mis-routed: node 1 reads stale 0
	exec := s.Execution(true)
	// Node 0's dirty data was dropped: final memory is stale.
	rep, err := coherence.NewVerifier().Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coherent() {
		t.Errorf("wrong-source fetch not detected\nP0=%v P1=%v final=%v",
			exec.Histories[0], exec.Histories[1], exec.Final)
	}
}

func TestLeakEntryBreaksInvariantsButCanBeTraceSilent(t *testing.T) {
	// Node 0 takes ownership of address 0 but the directory leaks the
	// entry, so node 1's later write does not invalidate node 0's copy:
	// two divergent dirty copies exist. The VALUE trace of this fault is
	// frequently serializable — node 0's write was never observed by
	// anyone else, so schedules are free to order it late — which is
	// exactly the paper's closing point (§8): trace-level testing is
	// sound but needs additional system information to be complete. The
	// additional information here is the protocol invariant check, which
	// flags the divergence immediately.
	s := New(Config{Nodes: 2, Faults: Once(FaultLeakEntry, 1)})
	s.Write(0, 0, 1) // leak fires: directory forgets node 0's ownership
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("leaked entry not flagged by the invariant check")
	}
	s.Write(1, 0, 2) // no invalidation reaches node 0
	if got := s.Read(0, 0); got != 1 {
		t.Fatalf("stale read %d, want 1 (node 0's surviving copy)", got)
	}
	if got := s.Read(1, 0); got != 2 {
		t.Fatalf("owner read %d, want 2", got)
	}
	// The divergence persists: still an invariant violation.
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("divergent dirty copies not flagged by the invariant check")
	}
	// The value trace, however, is coherent AND sequentially consistent:
	// node 0's unobserved write legally serializes after node 1's.
	exec := s.Execution(false)
	rep, err := coherence.NewVerifier().Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	ok := rep.Coherent()
	res, err := consistency.NewVerifier(consistency.SC).Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || !res.Consistent {
		// Not an error — just stronger detection than expected — but the
		// documented behavior of this scenario is trace-silence.
		t.Logf("note: trace-level checking flagged the leak (coherent=%v sc=%v)", ok, res.Consistent)
	}
}

func TestDropStoreDetected(t *testing.T) {
	s := New(Config{Nodes: 1, Faults: Once(FaultDropStore, 1)})
	s.Write(0, 0, 7)
	s.Read(0, 0)
	exec := s.Execution(true)
	rep, err := coherence.NewVerifier().Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coherent() {
		t.Error("dropped store not detected")
	}
}

func TestLoseWritebackDetected(t *testing.T) {
	s := New(Config{Nodes: 1, Faults: Once(FaultLoseWriteback, 1)})
	s.Write(0, 0, 1)
	s.Evict(0, 0) // writeback lost
	s.Read(0, 0)  // refills stale 0
	exec := s.Execution(true)
	rep, err := coherence.NewVerifier().Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coherent() {
		t.Error("lost writeback not detected")
	}
}

func TestFaultKindStrings(t *testing.T) {
	for _, k := range FaultKinds() {
		if k.String() == "unknown-fault" {
			t.Errorf("kind %d unnamed", k)
		}
	}
	if FaultKind(77).String() != "unknown-fault" {
		t.Error("unknown kind misnamed")
	}
}

func TestProbabilisticInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fired, detected := 0, 0
	for i := 0; i < 60; i++ {
		s := New(Config{Nodes: 2, Faults: WithProbability(FaultDropStore, 0.3, rng)})
		prog := mesi.RandomProgram(rng, 2, 8, 2, 0.5, 0.1)
		exec := run(s, prog, rng)
		if s.Stats().FaultsFired == 0 {
			continue
		}
		fired++
		rep, err := coherence.NewVerifier().Verify(context.Background(), exec)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Coherent() {
			detected++
		}
	}
	if fired == 0 {
		t.Fatal("no faults fired")
	}
	if detected == 0 {
		t.Errorf("none of %d faulty runs detected", fired)
	}
}

func TestExecutionWithoutFlush(t *testing.T) {
	s := New(Config{Nodes: 1})
	s.Write(0, 0, 1)
	if exec := s.Execution(false); len(exec.Final) != 0 {
		t.Error("unflushed execution has final values")
	}
}
