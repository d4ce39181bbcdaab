package coherence

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// bruteForceCount enumerates all interleavings and counts the coherent
// ones.
func bruteForceCount(exec *memory.Execution, addr memory.Addr) int64 {
	proj, back := exec.Project(addr)
	pos := make([]int, len(proj.Histories))
	var sched memory.Schedule
	var count int64
	var walk func()
	walk = func() {
		done := true
		for h := range proj.Histories {
			if pos[h] < len(proj.Histories[h]) {
				done = false
				break
			}
		}
		if done {
			orig := make(memory.Schedule, len(sched))
			for i, r := range sched {
				orig[i] = back[r.Proc][r.Index]
			}
			if memory.CheckCoherent(exec, addr, orig) == nil {
				count++
			}
			return
		}
		for h := range proj.Histories {
			if pos[h] >= len(proj.Histories[h]) {
				continue
			}
			sched = append(sched, memory.Ref{Proc: h, Index: pos[h]})
			pos[h]++
			walk()
			pos[h]--
			sched = sched[:len(sched)-1]
		}
	}
	walk()
	return count
}

func TestCountMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	nonTrivial := 0
	for i := 0; i < 300; i++ {
		exec := randomInstance(rng)
		want := bruteForceCount(exec, 0)
		got, err := Count(context.Background(), exec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(big.NewInt(want)) != 0 {
			t.Fatalf("instance %d: Count=%v brute=%d\nhistories=%v init=%v final=%v",
				i, got, want, exec.Histories, exec.Initial, exec.Final)
		}
		if want > 1 {
			nonTrivial++
		}
	}
	if nonTrivial < 20 {
		t.Errorf("only %d instances had multiple schedules", nonTrivial)
	}
}

func TestCountZeroIffIncoherent(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for i := 0; i < 200; i++ {
		exec := randomInstance(rng)
		res, err := NewVerifier(solver.WithStrategy(solver.StrategyExact)).Solve(context.Background(), exec, 0)
		if err != nil {
			t.Fatal(err)
		}
		n, err := Count(context.Background(), exec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Coherent != (n.Sign() > 0) {
			t.Fatalf("instance %d: Coherent=%v but Count=%v", i, res.Coherent, n)
		}
	}
}

func TestCountKnownValues(t *testing.T) {
	// Two independent single-write histories, no reads: 2 interleavings.
	e := memory.NewExecution(
		memory.History{memory.W(0, 1)},
		memory.History{memory.W(0, 2)},
	)
	n, err := Count(context.Background(), e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n.Int64() != 2 {
		t.Errorf("Count = %v, want 2", n)
	}
	// Final value pins the order: 1.
	e.SetFinal(0, 2)
	n, err = Count(context.Background(), e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n.Int64() != 1 {
		t.Errorf("Count with final = %v, want 1", n)
	}
	// Empty instance: exactly the empty schedule.
	n, err = Count(context.Background(), memory.NewExecution(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n.Int64() != 1 {
		t.Errorf("empty Count = %v, want 1", n)
	}
}

func TestCountLargeInstanceFeasible(t *testing.T) {
	// 2 histories x 12 independent writes each: C(24,12) interleavings —
	// enumeration would visit ~2.7M schedules, the DP visits 13x13
	// states.
	var h1, h2 memory.History
	for i := 0; i < 12; i++ {
		h1 = append(h1, memory.W(0, 1))
		h2 = append(h2, memory.W(0, 1))
	}
	e := memory.NewExecution(h1, h2)
	n, err := Count(context.Background(), e, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Binomial(24, 12)
	if n.Cmp(want) != 0 {
		t.Errorf("Count = %v, want C(24,12) = %v", n, want)
	}
}
