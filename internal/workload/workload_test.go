package workload

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"memverify/internal/coherence"
	"memverify/internal/consistency"
	"memverify/internal/memory"
)

// The litmus table is the ground truth for the verifiers — and vice
// versa: every expected verdict is recomputed here.
func TestLitmusVerdicts(t *testing.T) {
	all := append(LitmusTests(), IRIW(), Dekker())
	all = append(all, ExtendedLitmusTests()...)
	for _, l := range all {
		l := l
		t.Run(l.Name, func(t *testing.T) {
			coh, err := consistency.NewVerifier(consistency.CoherenceOnly).Verify(context.Background(), l.Exec)
			if err != nil {
				t.Fatal(err)
			}
			if coh.Consistent != l.Coherent {
				t.Errorf("coherence = %v, table says %v", coh.Consistent, l.Coherent)
			}
			sc, err := consistency.NewVerifier(consistency.SC).Verify(context.Background(), l.Exec)
			if err != nil {
				t.Fatal(err)
			}
			if sc.Consistent != l.SC {
				t.Errorf("SC = %v, table says %v", sc.Consistent, l.SC)
			}
			tso, err := consistency.NewVerifier(consistency.TSO).Verify(context.Background(), l.Exec)
			if err != nil {
				t.Fatal(err)
			}
			if tso.Consistent != l.TSO {
				t.Errorf("TSO = %v, table says %v", tso.Consistent, l.TSO)
			}
			pso, err := consistency.NewVerifier(consistency.PSO).Verify(context.Background(), l.Exec)
			if err != nil {
				t.Fatal(err)
			}
			if pso.Consistent != l.PSO {
				t.Errorf("PSO = %v, table says %v", pso.Consistent, l.PSO)
			}
		})
	}
}

func TestGenerateCoherentIsSC(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 25; i++ {
		exec, _ := GenerateCoherent(rng, GenConfig{Processors: 3, OpsPerProc: 6, Addresses: 2, Values: 3})
		res, err := consistency.NewVerifier(consistency.SC).Verify(context.Background(), exec)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Consistent {
			t.Fatalf("run %d: generated trace not SC\n%v", i, exec.Histories)
		}
	}
}

func TestGenerateCoherentWriteOrderUsable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		exec, orders := GenerateCoherent(rng, GenConfig{Processors: 3, OpsPerProc: 8, Addresses: 2, Values: 3, RMWFraction: 0.1, WriteFraction: 0.4})
		for _, a := range exec.Addresses() {
			res, err := coherence.SolveWithWriteOrder(context.Background(), exec, a, orders[a], nil)
			if err != nil {
				t.Fatalf("run %d addr %d: %v", i, a, err)
			}
			if !res.Coherent {
				t.Fatalf("run %d addr %d: recorded write order rejected", i, a)
			}
			if err := memory.CheckCoherent(exec, a, res.Schedule); err != nil {
				t.Fatalf("run %d addr %d: invalid certificate: %v", i, a, err)
			}
		}
	}
}

func TestGenerateCoherentUniqueWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	exec, _ := GenerateCoherent(rng, GenConfig{Processors: 3, OpsPerProc: 10, Addresses: 2, UniqueWrites: true, WriteFraction: 0.5})
	for _, a := range exec.Addresses() {
		for v, n := range exec.WritesPerValue(a) {
			if n > 1 {
				t.Fatalf("value %d written %d times at address %d with UniqueWrites", v, n, a)
			}
		}
		// The read-map algorithm applies.
		res, err := coherence.SolveReadMap(context.Background(), exec, a)
		if err != nil {
			t.Fatalf("addr %d: %v", a, err)
		}
		if !res.Coherent {
			t.Fatalf("addr %d: unique-write coherent trace rejected by read-map", a)
		}
	}
}

func TestInjectViolationsAreUsuallyDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, kind := range ViolationKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			attempts, detected := 0, 0
			for i := 0; i < 40 && attempts < 25; i++ {
				exec, _ := GenerateCoherent(rng, GenConfig{Processors: 3, OpsPerProc: 8, Addresses: 2, Values: 3, WriteFraction: 0.4})
				mut, err := Inject(rng, exec, kind)
				if err != nil {
					continue
				}
				attempts++
				rep, err := coherence.NewVerifier().Verify(context.Background(), mut)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Coherent() {
					detected++
				}
			}
			if attempts == 0 {
				t.Skip("no injection opportunities in sample")
			}
			if detected == 0 {
				t.Errorf("0 of %d injected %v violations detected", attempts, kind)
			}
		})
	}
}

func TestInjectDoesNotMutateOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	exec, _ := GenerateCoherent(rng, GenConfig{Processors: 2, OpsPerProc: 8, Addresses: 1, Values: 2, WriteFraction: 0.5})
	clone := exec.Clone()
	if _, err := Inject(rng, exec, ViolationPhantomValue); err != nil {
		t.Skip("no opportunity")
	}
	for p := range clone.Histories {
		for i := range clone.Histories[p] {
			if clone.Histories[p][i] != exec.Histories[p][i] {
				t.Fatal("Inject mutated the original execution")
			}
		}
	}
}

func TestInjectErrorsWithoutOpportunity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	writesOnly := memory.NewExecution(memory.History{memory.W(0, 1)})
	if _, err := Inject(rng, writesOnly, ViolationStaleRead); err == nil {
		t.Error("stale-read injection without reads accepted")
	}
	if _, err := Inject(rng, writesOnly, ViolationPhantomValue); err == nil {
		t.Error("phantom injection without reads accepted")
	}
	if _, err := Inject(rng, writesOnly, ViolationWrongFinal); err == nil {
		t.Error("final injection without finals accepted")
	}
	if _, err := Inject(rng, writesOnly, ViolationDroppedWrite); err == nil {
		t.Error("dropped-write injection without read-after-write accepted")
	}
	if _, err := Inject(rng, writesOnly, ViolationKind(99)); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestViolationKindStrings(t *testing.T) {
	for _, k := range ViolationKinds() {
		if k.String() == "unknown-violation" {
			t.Errorf("kind %d unnamed", k)
		}
	}
}

func TestGenerateCoherentWitnessIsSC(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 25; i++ {
		exec, _, witness := GenerateCoherentWithWitness(rng, GenConfig{
			Processors: 3, OpsPerProc: 10, Addresses: 3, Values: 3, WriteFraction: 0.4, RMWFraction: 0.1,
		})
		if err := memory.CheckSC(exec, witness); err != nil {
			t.Fatalf("run %d: generation order is not an SC witness: %v", i, err)
		}
	}
}

// TestGenerateRelayShape pins the structural properties the fast-path
// benchmarks rely on: deterministic output, the advertised op count,
// globally unique token values, a duplicated decoy value (so the
// read-map specialist of Figure 5.3 is inapplicable), and validity.
func TestGenerateRelayShape(t *testing.T) {
	cfg := RelayConfig{Processors: 3, Rounds: 5, Decoys: 2}
	exec := GenerateRelay(cfg)
	if err := exec.Validate(); err != nil {
		t.Fatal(err)
	}
	if again := GenerateRelay(cfg); !reflect.DeepEqual(exec, again) {
		t.Error("GenerateRelay is not deterministic")
	}
	// Each processor: Rounds*(Decoys+2) ops, minus the read P0 skips in
	// round 0.
	want := cfg.Processors*cfg.Rounds*(cfg.Decoys+2) - 1
	if got := exec.NumOps(); got != want {
		t.Errorf("NumOps = %d, want %d", got, want)
	}

	writes := map[memory.Value]int{}
	for _, h := range exec.Histories {
		for _, o := range h {
			if o.Kind == memory.Write {
				writes[o.Data]++
			}
		}
	}
	if writes[relayDecoy] != cfg.Processors*cfg.Rounds*cfg.Decoys {
		t.Errorf("decoy value written %d times", writes[relayDecoy])
	}
	for v, n := range writes {
		if v != relayDecoy && n != 1 {
			t.Errorf("token value %d written %d times, want globally unique", v, n)
		}
	}
	// Every read's value is either a token someone writes or (phantom
	// only) never written at all.
	read := map[memory.Value]bool{}
	for _, h := range exec.Histories {
		for _, o := range h {
			if o.Kind == memory.Read {
				read[o.Data] = true
				if writes[o.Data] != 1 {
					t.Errorf("read of value %d, written %d times", o.Data, writes[o.Data])
				}
			}
		}
	}
	if read[relayDecoy] {
		t.Error("a decoy write is read; decoys must stay unobserved")
	}
}

// TestGenerateRelayVerdicts: without Phantom the relay is coherent
// (verified end to end), with Phantom it is incoherent, and the phantom
// read's value is indeed never written.
func TestGenerateRelayVerdicts(t *testing.T) {
	good := GenerateRelay(RelayConfig{Processors: 3, Rounds: 4, Decoys: 1})
	rep, err := coherence.NewVerifier().Verify(context.Background(), good)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Coherent() {
		t.Error("relay without phantom should be coherent")
	}

	bad := GenerateRelay(RelayConfig{Processors: 3, Rounds: 4, Decoys: 1, Phantom: true})
	if bad.NumOps() != good.NumOps()+1 {
		t.Errorf("phantom should add exactly one op: %d vs %d", bad.NumOps(), good.NumOps())
	}
	rep, err = coherence.NewVerifier().Verify(context.Background(), bad)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coherent() {
		t.Error("relay with phantom should be incoherent")
	}
}
