package chaos

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

func TestKindStringRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if k, err := ParseKind(""); err != nil || k != KindNone {
		t.Errorf("empty spelling: %v, %v", k, err)
	}
	if _, err := ParseKind("meteor-strike"); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestDecideDeterministic pins that Decide is a pure function: the
// firing set for a seed is identical however many times it is asked.
func TestDecideDeterministic(t *testing.T) {
	for _, k := range Kinds() {
		for n := uint64(1); n <= 1000; n++ {
			a := Decide(42, k, n, 0.1)
			b := Decide(42, k, n, 0.1)
			if a != b {
				t.Fatalf("Decide(42, %v, %d) flapped", k, n)
			}
		}
	}
}

// TestDecideRate checks the empirical firing rate lands near the
// configured one, and the boundary rates behave.
func TestDecideRate(t *testing.T) {
	const n, rate = 20000, 0.05
	fired := 0
	for i := uint64(1); i <= n; i++ {
		if Decide(7, KindWorkerPanic, i, rate) {
			fired++
		}
	}
	got := float64(fired) / n
	if math.Abs(got-rate) > 0.01 {
		t.Errorf("empirical rate %.4f, want ~%.2f", got, rate)
	}
	if Decide(7, KindWorkerPanic, 1, 0) {
		t.Error("rate 0 fired")
	}
	if !Decide(7, KindWorkerPanic, 1, 1) {
		t.Error("rate 1 did not fire")
	}
}

// TestInjectorScheduleDeterministic drives two same-seed injectors from
// many goroutines and proves the canonical schedules are equal: the
// firing set depends on the seed and the opportunity counts, not on
// goroutine interleaving.
func TestInjectorScheduleDeterministic(t *testing.T) {
	run := func() []Event {
		in := NewInjector(99, map[Kind]float64{KindWorkerPanic: 0.1, KindError500: 0.2})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					in.Fire(KindWorkerPanic)
					in.Fire(KindError500)
				}
			}()
		}
		wg.Wait()
		return in.Schedule()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no faults fired at 10-20% over 1600 opportunities")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("schedules differ across same-seed runs:\n%v\nvs\n%v", a, b)
	}
}

func TestInjectorNilSafe(t *testing.T) {
	var in *Injector
	if in.Fire(KindWorkerPanic) {
		t.Error("nil injector fired")
	}
	in.Force(KindError500)
	if s := in.Schedule(); s != nil {
		t.Errorf("nil schedule %v", s)
	}
	if c := in.Counts(); len(c) != 0 {
		t.Errorf("nil counts %v", c)
	}
}

func TestInjectorForceCounts(t *testing.T) {
	in := NewInjector(1, nil)
	in.Force(KindDegrade)
	in.Force(KindDegrade)
	in.Force(KindDropConn)
	want := map[string]int{"degrade": 2, "drop": 1}
	if got := in.Counts(); !reflect.DeepEqual(got, want) {
		t.Errorf("counts %v, want %v", got, want)
	}
}

// TestBuildScheduleDeterministic pins the client-side assignment: same
// seed, same plan; different seed, (almost surely) different plan; the
// empirical rate is near the configured one.
func TestBuildScheduleDeterministic(t *testing.T) {
	a := BuildSchedule(5, 4000, 0.05, Kinds())
	b := BuildSchedule(5, 4000, 0.05, Kinds())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same-seed schedules differ")
	}
	c := BuildSchedule(6, 4000, 0.05, Kinds())
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds built identical schedules")
	}
	faults := 0
	for _, k := range a {
		if k != KindNone {
			faults++
		}
	}
	got := float64(faults) / float64(len(a))
	if math.Abs(got-0.05) > 0.02 {
		t.Errorf("assignment rate %.4f, want ~0.05", got)
	}
	counts := CountSchedule(a)
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != faults {
		t.Errorf("CountSchedule total %d, want %d", total, faults)
	}
	if len(BuildSchedule(5, 10, 0, Kinds())) != 10 {
		t.Error("zero-rate schedule has wrong length")
	}
}
