package mesi

import (
	"context"
	"math/rand"
	"testing"

	"memverify/internal/coherence"
	"memverify/internal/consistency"
	"memverify/internal/memory"
)

func TestReadAfterWriteSameCPU(t *testing.T) {
	s := New(Config{Processors: 1})
	s.Write(0, 5, 42)
	if got := s.Read(0, 5); got != 42 {
		t.Errorf("read %d after writing 42", got)
	}
}

func TestReadMissReturnsInitial(t *testing.T) {
	s := New(Config{Processors: 2})
	s.SetInitial(3, 9)
	if got := s.Read(0, 3); got != 9 {
		t.Errorf("read %d, want initial 9", got)
	}
	if got := s.Read(1, 3); got != 9 {
		t.Errorf("second CPU read %d, want 9", got)
	}
}

func TestCrossCPUVisibility(t *testing.T) {
	s := New(Config{Processors: 2})
	s.Write(0, 1, 7)
	if got := s.Read(1, 1); got != 7 {
		t.Errorf("CPU1 read %d, want 7 (dirty-miss forwarding)", got)
	}
	s.Write(1, 1, 8)
	if got := s.Read(0, 1); got != 8 {
		t.Errorf("CPU0 read %d, want 8 (invalidation + refill)", got)
	}
}

func TestRMWAtomicity(t *testing.T) {
	s := New(Config{Processors: 2})
	s.Write(0, 0, 5)
	old := s.RMW(1, 0, 6)
	if old != 5 {
		t.Errorf("RMW read %d, want 5", old)
	}
	if got := s.Read(0, 0); got != 6 {
		t.Errorf("read %d after RMW, want 6", got)
	}
}

func TestEvictionWritebackAndRefill(t *testing.T) {
	// Direct-mapped single-set cache: any two distinct addresses
	// conflict.
	s := New(Config{Processors: 1, CacheSets: 1, CacheWays: 1})
	s.Write(0, 0, 11)
	s.Write(0, 1, 22) // evicts addr 0 (writeback)
	if got := s.Read(0, 0); got != 11 {
		t.Errorf("read %d after writeback round-trip, want 11", got)
	}
	if s.Stats().Writebacks == 0 {
		t.Error("expected a writeback")
	}
}

func TestInvariantsHoldStepwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := New(Config{Processors: 4, CacheSets: 2, CacheWays: 2})
	for step := 0; step < 3000; step++ {
		cpu := rng.Intn(4)
		a := memory.Addr(rng.Intn(6))
		switch rng.Intn(3) {
		case 0:
			s.Read(cpu, a)
		case 1:
			s.Write(cpu, a, memory.Value(step))
		default:
			s.RMW(cpu, a, memory.Value(step))
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// The headline property: a correct protocol on an atomic bus produces
// sequentially consistent (hence coherent) executions.
func TestCorrectProtocolProducesSCTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		s := New(Config{Processors: 3, CacheSets: 2, CacheWays: 1})
		prog := RandomProgram(rng, 3, 6, 3, 0.4, 0.1)
		exec := Run(s, prog, rng)
		rep, err := coherence.NewVerifier().Verify(context.Background(), exec)
		if err != nil {
			t.Fatal(err)
		}
		if bad, violated := rep.FirstViolation(); violated {
			t.Fatalf("run %d: correct protocol produced incoherent trace at address %d\n%v",
				i, bad, exec.Histories)
		}
		res, err := consistency.NewVerifier(consistency.SC).Verify(context.Background(), exec)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Consistent {
			t.Fatalf("run %d: correct protocol produced non-SC trace\n%v", i, exec.Histories)
		}
	}
}

func TestDropInvalidateDetected(t *testing.T) {
	// P1: W(a,1); P0 reads it (both Shared); P1's second write's
	// invalidation to P0 is dropped; P0 upgrades its stale line with an
	// RMW. Program order P1: W1 < W2 plus the flushed final value make
	// the trace incoherent.
	s := New(Config{Processors: 2, Faults: Once(FaultDropInvalidate, 1)})
	s.Write(1, 0, 1)
	s.Read(0, 0)     // P0 gets Shared copy of 1
	s.Write(1, 0, 2) // upgrade; invalidation to P0 dropped
	s.RMW(0, 0, 3)   // reads stale 1, writes 3
	exec := s.Execution(true)
	rep, err := coherence.NewVerifier().Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coherent() {
		t.Errorf("dropped invalidation not detected\nP0=%v P1=%v final=%v",
			exec.Histories[0], exec.Histories[1], exec.Final)
	}
	if s.Stats().FaultsFired != 1 {
		t.Errorf("FaultsFired = %d, want 1", s.Stats().FaultsFired)
	}
}

func TestLoseWritebackDetected(t *testing.T) {
	s := New(Config{Processors: 1, CacheSets: 1, CacheWays: 1,
		Faults: Once(FaultLoseWriteback, 1)})
	s.Write(0, 0, 1)
	s.Read(0, 1) // evicts addr 0; writeback lost
	s.Read(0, 0) // refills from stale memory: 0
	exec := s.Execution(true)
	rep, err := coherence.NewVerifier().Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	ok := rep.Coherent()
	bad, _ := rep.FirstViolation()
	if ok {
		t.Errorf("lost writeback not detected\n%v", exec.Histories[0])
	}
	if bad != 0 {
		t.Errorf("violation reported at address %d, want 0", bad)
	}
}

func TestStaleMemoryDetected(t *testing.T) {
	s := New(Config{Processors: 2, Faults: Once(FaultStaleMemory, 1)})
	s.Write(0, 0, 1)
	s.Read(1, 0) // snoop response lost; P1 reads stale 0
	exec := s.Execution(true)
	// P0's dirty line was downgraded without a flush, so the final value
	// in memory is stale: the last write (1) does not match.
	rep, err := coherence.NewVerifier().Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coherent() {
		t.Errorf("stale memory response not detected\nP0=%v P1=%v final=%v",
			exec.Histories[0], exec.Histories[1], exec.Final)
	}
}

func TestCorruptFillDetected(t *testing.T) {
	s := New(Config{Processors: 2, Faults: Once(FaultCorruptFill, 2)})
	s.Write(0, 0, 8)
	s.Read(1, 0) // second fill opportunity: corrupted to 9
	exec := s.Execution(true)
	rep, err := coherence.NewVerifier().Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coherent() {
		t.Errorf("corrupted fill not detected\nP0=%v P1=%v", exec.Histories[0], exec.Histories[1])
	}
}

func TestDropWriteDetected(t *testing.T) {
	s := New(Config{Processors: 1, Faults: Once(FaultDropWrite, 1)})
	s.Write(0, 0, 7)
	s.Read(0, 0) // observes the old value
	exec := s.Execution(true)
	rep, err := coherence.NewVerifier().Verify(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coherent() {
		t.Errorf("dropped write not detected\n%v", exec.Histories[0])
	}
}

func TestFaultKindStrings(t *testing.T) {
	for _, k := range FaultKinds() {
		if k.String() == "unknown-fault" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if FaultKind(99).String() != "unknown-fault" {
		t.Error("unknown kind misnamed")
	}
}

func TestLineStateStrings(t *testing.T) {
	cases := map[LineState]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M", LineState(9): "?"}
	for st, want := range cases {
		if got := st.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", st, got, want)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := New(Config{Processors: 2})
	s.Write(0, 0, 1) // miss, BusRdX
	s.Read(0, 0)     // hit
	s.Read(1, 0)     // miss, BusRd, flush
	s.Write(1, 0, 2) // hit Shared, upgrade, invalidation
	st := s.Stats()
	if st.Misses != 2 || st.Hits != 2 {
		t.Errorf("hits=%d misses=%d, want 2/2", st.Hits, st.Misses)
	}
	if st.BusReadXs != 1 || st.BusReads != 1 || st.Upgrades != 1 {
		t.Errorf("busRd=%d busRdX=%d upgr=%d, want 1/1/1", st.BusReads, st.BusReadXs, st.Upgrades)
	}
	if st.Invalidations != 1 {
		t.Errorf("invalidations=%d, want 1", st.Invalidations)
	}
}

func TestExecutionWithoutFlushOmitsFinals(t *testing.T) {
	s := New(Config{Processors: 1})
	s.Write(0, 0, 1)
	exec := s.Execution(false)
	if len(exec.Final) != 0 {
		t.Error("unflushed execution should have no final values")
	}
}

// Probabilistic fault injection: over many runs, injected faults are
// frequently (not necessarily always) detectable by per-address
// coherence checking. This guards the detection-rate experiment's
// machinery.
func TestProbabilisticInjectionSometimesDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	detected := 0
	fired := 0
	for i := 0; i < 60; i++ {
		faults := WithProbability(FaultDropWrite, 0.3, rng)
		s := New(Config{Processors: 2, CacheSets: 2, CacheWays: 1, Faults: faults})
		prog := RandomProgram(rng, 2, 8, 2, 0.5, 0.1)
		exec := Run(s, prog, rng)
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
		t.Fatal("no faults fired; generator too weak")
	}
	if detected == 0 {
		t.Errorf("none of %d faulty runs detected", fired)
	}
}

func TestWriteOrdersUsableByPolynomialVerifier(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 20; i++ {
		s := New(Config{Processors: 3, CacheSets: 2, CacheWays: 1})
		prog := RandomProgram(rng, 3, 8, 2, 0.45, 0.15)
		exec := Run(s, prog, rng)
		orders := s.WriteOrders()
		for _, a := range exec.Addresses() {
			res, err := coherence.SolveWithWriteOrder(context.Background(), exec, a, orders[a], nil)
			if err != nil {
				t.Fatalf("run %d addr %d: %v", i, a, err)
			}
			if !res.Coherent {
				t.Fatalf("run %d addr %d: recorded bus order rejected", i, a)
			}
		}
	}
}
