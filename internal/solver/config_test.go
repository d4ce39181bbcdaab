package solver

import (
	"testing"
	"time"

	"memverify/internal/memory"
)

func TestNewConfigDefaults(t *testing.T) {
	c := NewConfig()
	if c.Options == nil {
		t.Fatal("NewConfig() left Options nil")
	}
	if c.Strategy != StrategyAuto {
		t.Errorf("default strategy = %v, want auto", c.Strategy)
	}
}

func TestConfigOptionsCompose(t *testing.T) {
	orders := map[memory.Addr][]memory.Ref{1: {{Proc: 0, Index: 2}}}
	c := NewConfig(
		WithStrategy(StrategyResilient),
		WithBudget(WithMaxStates(1234), WithTimeout(2*time.Second), WithoutMemoization()),
		WithWriteOrders(orders),
	)
	if c.Strategy != StrategyResilient {
		t.Errorf("strategy = %v", c.Strategy)
	}
	if c.Options.MaxStates != 1234 || c.Options.Timeout != 2*time.Second || !c.Options.DisableMemoization {
		t.Errorf("budget not applied: %+v", c.Options)
	}
	if len(c.WriteOrders[1]) != 1 {
		t.Errorf("write orders not applied")
	}
}

func TestWithOptionsClones(t *testing.T) {
	o := New(WithMaxStates(10))
	c := NewConfig(WithOptions(o))
	o.MaxStates = 99
	if c.Options.MaxStates != 10 {
		t.Errorf("WithOptions aliased the caller's Options: got %d", c.Options.MaxStates)
	}
}

func TestWithConfigCopies(t *testing.T) {
	src := NewConfig(WithStrategy(StrategyFast), WithBudget(WithMaxStates(5)))
	dst := NewConfig(WithConfig(src))
	if dst.Strategy != StrategyFast || dst.Options.MaxStates != 5 {
		t.Errorf("WithConfig did not copy: %+v", dst)
	}
	src.Options.MaxStates = 50
	if dst.Options.MaxStates != 5 {
		t.Error("WithConfig shared the Options value")
	}
}

func TestParseStrategy(t *testing.T) {
	cases := []struct {
		in   string
		want Strategy
		ok   bool
	}{
		{"", StrategyAuto, true},
		{"auto", StrategyAuto, true},
		{"fast", StrategyFast, true},
		{"Portfolio", StrategyFast, true}, // the retired racer's spelling
		{" resilient ", StrategyResilient, true},
		{"exact", StrategyExact, true},
		{"turbo", StrategyAuto, false},
	}
	for _, tc := range cases {
		got, err := ParseStrategy(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseStrategy(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseStrategy(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, s := range []Strategy{StrategyAuto, StrategyFast, StrategyResilient, StrategyExact} {
		back, err := ParseStrategy(s.String())
		if err != nil || back != s {
			t.Errorf("round-trip %v failed: %v %v", s, back, err)
		}
	}
}
