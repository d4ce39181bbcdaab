package solver

import (
	"fmt"
	"strings"

	"memverify/internal/memory"
)

// Strategy selects which rungs of the per-address escalation ladder
// (internal/coherence) run. Every strategy decides the same question;
// they differ in which cheap rungs open the climb and in what happens
// when the exact search runs out of budget.
type Strategy int

const (
	// StrategyAuto runs the polynomial Figure 5.3 specialists whose
	// preconditions hold, then the general memoized search. The default.
	StrategyAuto Strategy = iota
	// StrategyResilient runs the whole ladder: fast path, specialists,
	// exact search, and — on state or deadline exhaustion — write-order
	// hints, exhaustive small-write-order enumeration and sound
	// necessary conditions, ending in an explicit Unknown verdict
	// instead of an error.
	StrategyResilient
	// StrategyExact always runs the general memoized search alone
	// (ablation and cross-check use).
	StrategyExact
	// StrategyFast opens with the polynomial constraint-propagation
	// frontline (internal/coherence's fast path), which answers
	// definitively when per-address ordering constraints force a
	// verdict, then climbs to the specialists and the exact search only
	// on an INCONCLUSIVE outcome. The frontline never charges the
	// MaxStates budget, so huge-but-structured traces decide in
	// near-linear time under budgets that would stop the exact search
	// immediately.
	StrategyFast
)

// String names the strategy as spelled in HTTP requests and CLI flags.
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyResilient:
		return "resilient"
	case StrategyExact:
		return "exact"
	case StrategyFast:
		return "fast"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy maps the request/flag spelling back to a Strategy. The
// empty string parses to StrategyAuto, so absent request fields get the
// default without special-casing. "portfolio", the spelling of a
// retired racing strategy that opened with the same rungs, parses to
// StrategyFast.
func ParseStrategy(name string) (Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "auto":
		return StrategyAuto, nil
	case "resilient":
		return StrategyResilient, nil
	case "exact":
		return StrategyExact, nil
	case "fast", "portfolio":
		return StrategyFast, nil
	}
	return StrategyAuto, fmt.Errorf("solver: unknown strategy %q (want auto, fast, exact or resilient)", name)
}

// Config is the unified configuration of a Verifier facade
// (coherence.Verifier, consistency.Verifier): the per-solve Options
// budget plus the execution-level choices — strategy and write-order
// hints — that used to be encoded in which entry point a caller picked.
// HTTP request parameters, vmcheck flags, and Go callers all bind to
// this one vocabulary.
type Config struct {
	// Options is the per-solve budget and knob set shared by every
	// solver (never nil for a Config built by NewConfig).
	Options *Options
	// Strategy picks the decision-procedure family.
	Strategy Strategy
	// WriteOrders optionally supplies observed per-address write orders
	// (the §5.2 augmentation): used as degradation hints by
	// StrategyResilient and as search constraints by the SC verifier.
	WriteOrders map[memory.Addr][]memory.Ref
}

// ConfigOption is a functional option for NewConfig.
type ConfigOption func(*Config)

// NewConfig builds a *Config from functional options. NewConfig() with
// no arguments is the default verifier configuration: StrategyAuto,
// unbounded complete search.
func NewConfig(opts ...ConfigOption) *Config {
	c := &Config{Options: &Options{}}
	for _, f := range opts {
		f(c)
	}
	return c
}

// Clone returns a copy of c with its own Options value (maps are shared:
// write orders are read-only by contract).
func (c *Config) Clone() *Config {
	if c == nil {
		return NewConfig()
	}
	out := *c
	out.Options = c.Options.Clone()
	return &out
}

// WithStrategy selects the decision-procedure family.
func WithStrategy(s Strategy) ConfigOption { return func(c *Config) { c.Strategy = s } }

// WithBudget applies per-solve Options (WithMaxStates, WithTimeout,
// ablation knobs, ...) to the configuration's budget.
func WithBudget(budget ...Option) ConfigOption {
	return func(c *Config) {
		for _, f := range budget {
			f(c.Options)
		}
	}
}

// WithOptions adopts an existing *Options value (cloned, so later
// mutation of the caller's value does not leak in), for callers that
// already hold one; otherwise compose WithBudget.
func WithOptions(o *Options) ConfigOption {
	return func(c *Config) { c.Options = o.Clone() }
}

// WithWriteOrders supplies observed per-address write orders (§5.2
// augmentation). The map is retained, not copied; callers must not
// mutate it while the verifier is in use. A nil map is normalized to an
// empty one so Config.WriteOrders != nil records that orders were
// explicitly supplied — the SC verifier then insists on a complete,
// valid order set instead of silently falling back to the unconstrained
// search.
func WithWriteOrders(orders map[memory.Addr][]memory.Ref) ConfigOption {
	return func(c *Config) {
		if orders == nil {
			orders = map[memory.Addr][]memory.Ref{}
		}
		c.WriteOrders = orders
	}
}

// WithConfig copies an entire existing configuration, so one facade can
// hand its configuration to another (the consistency verifier passes its
// config down to the per-address coherence verifier this way).
func WithConfig(src *Config) ConfigOption {
	return func(c *Config) { *c = *src.Clone() }
}
