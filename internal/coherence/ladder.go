package coherence

// The escalation ladder: the one procedure that decides an address.
//
// The paper poses one problem per address (Definition 4.1) and prices
// it with a cost ladder: the polynomial rows of Figure 5.3, then the
// NP-complete general search of Theorem 4.2. decide climbs the same
// ladder, cheapest rung first, and stops at the first rung that answers:
//
//	fast        constraint propagation (fastpath.go); sound both ways,
//	            INCONCLUSIVE climbs on
//	specialist  the Figure 5.3 rows whose preconditions hold: read-map,
//	            one op per process, read-modify-write chains
//	exact       the complete memoized search, sequential or ∥n
//	degrade     only after exact trips its state or deadline budget:
//	            supplied write order → write-order enumeration (≤ 8
//	            writes) → necessary conditions, which refute or answer
//	            Unknown
//
// A strategy is nothing more than a preset of which rungs run (see
// presetFor). Cancellation never degrades: the caller asked to stop.

import (
	"context"
	"fmt"

	"memverify/internal/memory"
	"memverify/internal/obs"
	"memverify/internal/solver"
)

// Rung names the ladder rung that produced a verdict. The numbering is
// part of reports (Stats.Rung): the exact search is 0, the fast path
// below it, the degradation rungs above it, so Stats.Merge's max-rung
// aggregation reports the weakest rung an execution fell to.
type Rung int

// RungFast is the polynomial constraint-propagation frontline
// (fastpath.go), which decided outright.
const RungFast Rung = -1

const (
	// RungExact is the normal case: a Figure 5.3 specialist or the
	// exact search decided within budget.
	RungExact Rung = iota
	// RungWriteOrder is the §5.2 write-order-augmented check, used when
	// the caller supplied an observed write order. It is trusted only
	// in the positive direction: a coherent schedule extending the
	// supplied order proves coherence of the instance, but failure to
	// extend a hint does not refute it.
	RungWriteOrder
	// RungSpecialist is exhaustive write-order enumeration when the
	// instance has few writes (complete: every coherent schedule induces
	// a write order, so if no order extends, none exists).
	RungSpecialist
	// RungNecessary is the last rung: sound necessary conditions that
	// can refute (Incoherent) but never confirm; when they all pass the
	// verdict is Unknown.
	RungNecessary
)

// String names the rung for reports and obs events.
func (r Rung) String() string {
	switch r {
	case RungFast:
		return "fast"
	case RungExact:
		return "exact"
	case RungWriteOrder:
		return "write-order"
	case RungSpecialist:
		return "specialist"
	case RungNecessary:
		return "necessary"
	}
	return fmt.Sprintf("Rung(%d)", int(r))
}

// ResilientVerdict is the three-valued outcome of one address.
type ResilientVerdict int

const (
	// VerdictCoherent: a coherent schedule exists (certificate in Result).
	VerdictCoherent ResilientVerdict = iota
	// VerdictIncoherent: no coherent schedule exists.
	VerdictIncoherent
	// VerdictUnknown: no rung could decide — the fast-path frontline
	// was inconclusive, the exact search ran out of budget, and every
	// degradation rung was inapplicable or silent. The instance may or
	// may not be coherent; Checks carries the necessary-condition
	// evidence. Only StrategyResilient answers Unknown.
	VerdictUnknown
)

// String renders the verdict.
func (v ResilientVerdict) String() string {
	switch v {
	case VerdictCoherent:
		return "coherent"
	case VerdictIncoherent:
		return "incoherent"
	case VerdictUnknown:
		return "unknown"
	}
	return fmt.Sprintf("ResilientVerdict(%d)", int(v))
}

// maxEnumWrites bounds the write count for exhaustive write-order
// enumeration at RungSpecialist. The number of orders is the number of
// interleavings of the per-process write sequences, at most w! (40320
// for w = 8), each checked by the polynomial §5.2 placement.
const maxEnumWrites = 8

// preset is a strategy's choice of rungs. The exact rung always runs.
type preset struct {
	span       string // the per-address span, "solve-<strategy>"
	fast       bool   // open with the fast path
	specialist bool   // try the Figure 5.3 rows before the exact search
	degrade    bool   // step down on a state or deadline trip
}

// presetFor maps a strategy to its rungs. Unknown strategy values get
// the default, auto. solver.WithoutFastPath drops the fast rung.
func presetFor(s solver.Strategy, opts *Options) preset {
	var p preset
	switch s {
	case solver.StrategyFast:
		p = preset{span: "solve-fast", fast: true, specialist: true}
	case solver.StrategyResilient:
		p = preset{span: "solve-resilient", fast: true, specialist: true, degrade: true}
	case solver.StrategyExact:
		p = preset{span: "solve-exact"}
	default:
		p = preset{span: "solve-auto", specialist: true}
	}
	p.fast = p.fast && opts.FastPath()
	return p
}

// decide climbs the ladder for inst, the projection of one address of
// the validated execution exec, and fills ar. An error is a budget trip
// the preset does not degrade (cancellation always is one); ar is then
// meaningless.
func (v *Verifier) decide(ctx context.Context, exec *memory.Execution, inst *instance, opts *Options, ar *AddrReport) error {
	p := presetFor(v.cfg.Strategy, opts)
	sp, ctx := beginSolve(ctx, p.span, inst.addr)
	defer obs.SearchFrom(ctx).SolveEnd()
	*ar = AddrReport{Addr: inst.addr}
	if e := v.climb(ctx, sp, p, exec, inst, opts, ar); e != nil {
		e = withAddr(e, inst.addr)
		sp.End("budget: "+e.Reason.String(), int64(e.Stats.States))
		return e
	}
	ar.Stats.Rung = int(ar.Rung)
	if ar.Result != nil {
		ar.Result.Stats.Rung = int(ar.Rung)
	}
	if sp.ID() != 0 {
		detail := fmt.Sprintf("%s (rung=%s)", ar.Verdict, ar.Rung)
		if ar.Result != nil {
			detail = fmt.Sprintf("%s (%s, rung=%s)", ar.Verdict, ar.Result.Algorithm, ar.Rung)
		}
		sp.End(detail, int64(ar.Stats.States))
	}
	return nil
}

// climb runs the preset's rungs in order until one decides; each rung
// entered is a stage event on sp.
func (v *Verifier) climb(ctx context.Context, sp obs.Span, p preset, exec *memory.Execution, inst *instance, opts *Options, ar *AddrReport) *solver.ErrBudgetExceeded {
	if e := solver.Interrupted(ctx); e != nil {
		return e
	}
	tr := obs.TracerFrom(ctx)
	if p.fast {
		tr.Stage(sp, RungFast.String())
		out, e := fastPath(ctx, exec, inst, opts)
		switch {
		case e != nil && (!p.degrade || e.Reason == solver.Canceled):
			// The fast path is polynomial: if even it blew the deadline,
			// an exponential search under the same budget is pointless
			// unless weaker rungs wait below it.
			return e
		case e != nil:
			ar.Stats.Merge(e.Stats)
			tr.Degrade(sp, RungExact.String(), "fast path exhausted its deadline; escalating")
		case out.verdict == fastInconclusive:
			ar.Stats.Merge(out.stats)
			if tr != nil {
				tr.Degrade(sp, RungExact.String(), "fast path inconclusive ("+out.detail+"); escalating")
			}
		default:
			ar.settle(RungFast, out.result)
			return nil
		}
	}
	if p.specialist {
		tr.Stage(sp, "specialist")
		if r := specialist(inst); r != nil {
			ar.settle(RungExact, r)
			return nil
		}
	}
	tr.Stage(sp, RungExact.String())
	r, e := searchInstance(ctx, inst, opts)
	switch {
	case e == nil:
		ar.settle(RungExact, r)
		return nil
	case !p.degrade || e.Reason == solver.Canceled:
		return e
	}
	ar.Stats.Merge(e.Stats)
	return v.degrade(ctx, sp, inst, e.Reason, ar)
}

// specialist runs the first Figure 5.3 row whose precondition holds:
//
//  1. at most one write per value  -> read-map algorithm (linear);
//  2. one operation per process    -> RMW Euler path or grouping.
//
// nil means no row applies (or the read-map is ambiguous because the
// initial value is also written) and the exact search must decide.
func specialist(inst *instance) *Result {
	if r, ok := readMapInstance(inst); ok {
		return r
	}
	if inst.maxOpsPerProcess() <= 1 {
		if inst.allRMW() {
			return eulerInstance(inst)
		}
		if r, ok := singleOpInstance(inst); ok {
			return r
		}
	}
	return nil
}

// settle records the deciding rung and its result, adding the result's
// work to the address's.
func (ar *AddrReport) settle(rung Rung, r *Result) {
	ar.Stats.Merge(r.Stats)
	ar.decidedBy(rung, r)
}

// decidedBy records the deciding rung and its result.
func (ar *AddrReport) decidedBy(rung Rung, r *Result) {
	ar.Rung, ar.Result, ar.Verdict = rung, r, VerdictCoherent
	if !r.Coherent {
		ar.Verdict = VerdictIncoherent
	}
}

// degrade is the ladder's last stretch, entered only after the exact
// search tripped its state or deadline budget (reason why):
//
//	RungWriteOrder: if the caller supplied an observed §5.2 write order
//	    and a coherent schedule extends it → Coherent.
//	RungSpecialist: if the instance has ≤ maxEnumWrites writes,
//	    enumerate all write orders; this is complete → Coherent or
//	    Incoherent.
//	RungNecessary: sound necessary conditions; a violation → Incoherent,
//	    otherwise → Unknown (never an error: Unknown is an answer).
//
// A degraded Result carries the address's aggregate stats.
func (v *Verifier) degrade(ctx context.Context, sp obs.Span, inst *instance, why solver.Reason, ar *AddrReport) *solver.ErrBudgetExceeded {
	tr := obs.TracerFrom(ctx)
	step := func(r Rung, detail string) {
		tr.Degrade(sp, r.String(), detail)
		tr.Stage(sp, r.String())
	}
	if order := v.cfg.WriteOrders[inst.addr]; len(order) > 0 {
		step(RungWriteOrder, fmt.Sprintf("exact search exhausted (%s); trying supplied write order", why))
		if po, err := inst.toProjectionRefs(order, inst.addr); err == nil {
			if wr, err := writeOrderInstance(inst, po); err == nil {
				ar.Stats.Merge(wr.Stats)
				if wr.Coherent {
					wr.Stats = ar.Stats
					ar.decidedBy(RungWriteOrder, wr)
					return nil
				}
			}
		}
	}
	if n := countWriters(inst); n > 0 && n <= maxEnumWrites {
		step(RungSpecialist, fmt.Sprintf("enumerating write orders (%d writes)", n))
		wr, e := enumerateWriteOrders(ctx, inst, &ar.Stats)
		if e != nil {
			return e
		}
		wr.Stats = ar.Stats
		ar.decidedBy(RungSpecialist, wr)
		return nil
	}
	step(RungNecessary, "checking necessary conditions")
	checks, violated := necessaryConditions(inst)
	ar.Stats.States += inst.nops
	ar.Rung, ar.Checks, ar.Verdict = RungNecessary, checks, VerdictUnknown
	if violated != "" {
		ar.decidedBy(RungNecessary, &Result{Coherent: false, Decided: true, Algorithm: "necessary-conditions", Stats: ar.Stats})
	}
	return nil
}

// countWriters counts writing operations in the instance.
func countWriters(inst *instance) int {
	n := 0
	for _, h := range inst.hist {
		for _, o := range h {
			if _, ok := o.Writes(); ok {
				n++
			}
		}
	}
	return n
}

// enumerateWriteOrders decides the instance by trying every
// program-order-respecting interleaving of the per-process write
// sequences through the §5.2 placement algorithm. Complete: a coherent
// schedule induces exactly one write order, so if no order extends to a
// coherent schedule none exists. The context is polled between orders.
func enumerateWriteOrders(ctx context.Context, inst *instance, agg *Stats) (*Result, *solver.ErrBudgetExceeded) {
	// Per-process queues of writing-op refs, in program order.
	queues := make([][]memory.Ref, len(inst.hist))
	total := 0
	for h, hist := range inst.hist {
		for i, o := range hist {
			if _, ok := o.Writes(); ok {
				queues[h] = append(queues[h], memory.Ref{Proc: h, Index: i})
				total++
			}
		}
	}
	heads := make([]int, len(queues))
	order := make([]memory.Ref, 0, total)
	tried := 0

	var found *Result
	var rec func() (*solver.ErrBudgetExceeded, bool)
	rec = func() (*solver.ErrBudgetExceeded, bool) {
		if len(order) == total {
			tried++
			if tried&63 == 0 {
				if e := solver.Interrupted(ctx); e != nil {
					return e, false
				}
			}
			r, err := writeOrderInstance(inst, order)
			if err != nil {
				// The enumeration only emits valid orders; an error here is
				// an invariant break, surfaced as incoherent-for-this-order.
				return nil, false
			}
			agg.Merge(r.Stats)
			if r.Coherent {
				found = r
				return nil, true
			}
			return nil, false
		}
		for h := range queues {
			if heads[h] >= len(queues[h]) {
				continue
			}
			order = append(order, queues[h][heads[h]])
			heads[h]++
			e, done := rec()
			heads[h]--
			order = order[:len(order)-1]
			if e != nil || done {
				return e, done
			}
		}
		return nil, false
	}
	if e, _ := rec(); e != nil {
		return nil, e
	}
	if found != nil {
		found.Algorithm = "write-order-enum"
		return found, nil
	}
	return &Result{Coherent: false, Decided: true, Algorithm: "write-order-enum"}, nil
}

// necessaryConditions evaluates sound refutation checks over the
// instance and returns the per-check evidence lines plus the name of
// the first violated condition ("" when all pass). Each condition is
// necessary for coherence, so a violation proves incoherence; passing
// proves nothing (the verdict stays Unknown).
//
// Note that the obvious-looking pairwise reduction — check every
// 2-process sub-history with the constant-process algorithm — is NOT
// sound and is deliberately absent: coherence is not monotone under
// history deletion (removing a writer history changes which write is
// "most recent", and can make a previously-served read unservable), so
// a projection verdict says nothing about the full instance.
func necessaryConditions(inst *instance) (checks []string, violated string) {
	written := make(map[memory.Value]int)
	for _, h := range inst.hist {
		for _, o := range h {
			if d, ok := o.Writes(); ok {
				written[d]++
			}
		}
	}

	record := func(name string, bad bool, detail string) {
		status := "pass"
		if bad {
			status = "FAIL"
			if violated == "" {
				violated = name
			}
		}
		checks = append(checks, fmt.Sprintf("%s: %s (%s)", name, status, detail))
	}

	// unwritten-read-values: a read's value must be written or be the
	// (single) initial value. With a declared initial value any other
	// unwritten value is unreadable; without one, at most one distinct
	// unwritten value can ever be read (whatever the initial happened to
	// be).
	unwritten := make(map[memory.Value]bool)
	for _, h := range inst.hist {
		for _, o := range h {
			if d, ok := o.Reads(); ok && written[d] == 0 {
				unwritten[d] = true
			}
		}
	}
	switch {
	case inst.init != nil:
		bad := ""
		for v := range unwritten {
			if v != *inst.init {
				bad = fmt.Sprintf("read of value %d: never written, initial is %d", v, *inst.init)
				break
			}
		}
		record("unwritten-read-values", bad != "", orDetail(bad, fmt.Sprintf("%d unwritten read values, all initial", len(unwritten))))
	case len(unwritten) > 1:
		record("unwritten-read-values", true, fmt.Sprintf("%d distinct values read but never written; only one initial value exists", len(unwritten)))
	default:
		record("unwritten-read-values", false, fmt.Sprintf("%d unwritten read values", len(unwritten)))
	}

	// read-after-write-unwritten: after the first write in a history (in
	// program order, hence in any schedule), memory always holds some
	// written value — a later read of a never-written value is impossible.
	bad := ""
scan:
	for h, hist := range inst.hist {
		seenWrite := false
		for i, o := range hist {
			if _, ok := o.Writes(); ok {
				seenWrite = true
				continue
			}
			if d, ok := o.Reads(); ok && seenWrite && written[d] == 0 {
				bad = fmt.Sprintf("P%d op %d reads %d, never written, after a write in the same history", h, i, d)
				break scan
			}
		}
	}
	record("read-after-write-unwritten", bad != "", orDetail(bad, "no unwritten-value reads after writes"))

	// final-value: the declared final value must be producible — the last
	// write of a schedule stores it (so it must be written somewhere), or
	// with no writes at all it must equal the declared initial value.
	bad = ""
	if inst.final != nil {
		nw := countWriters(inst)
		switch {
		case nw > 0 && written[*inst.final] == 0:
			bad = fmt.Sprintf("declared final value %d is never written", *inst.final)
		case nw == 0 && inst.init != nil && *inst.init != *inst.final:
			bad = fmt.Sprintf("no writes but initial %d != final %d", *inst.init, *inst.final)
		}
	}
	record("final-value", bad != "", orDetail(bad, "final value producible"))

	// unique-write-contiguity: a value written exactly once (and distinct
	// from the declared initial value) holds in memory over a single
	// contiguous interval of any coherent schedule. Within one history,
	// every operation between the first and last read of such a value
	// must itself carry that value — any other value in between forces
	// the schedule to leave the interval and return, which needs a second
	// write. (This is the per-history structure behind the read-map row
	// of Figure 5.3.)
	bad = ""
	if inst.init != nil {
	contig:
		for h, hist := range inst.hist {
			first := make(map[memory.Value]int)
			last := make(map[memory.Value]int)
			for i, o := range hist {
				if d, ok := o.Reads(); ok && written[d] == 1 && d != *inst.init {
					if _, seen := first[d]; !seen {
						first[d] = i
					}
					last[d] = i
				}
			}
			for v, f := range first {
				for i := f + 1; i < last[v]; i++ {
					o := hist[i]
					if d, ok := o.Reads(); ok && d != v {
						bad = fmt.Sprintf("P%d reads %d between reads of once-written %d", h, d, v)
						break contig
					}
					if d, ok := o.Writes(); ok && d != v {
						bad = fmt.Sprintf("P%d writes %d between reads of once-written %d", h, d, v)
						break contig
					}
				}
			}
		}
	}
	record("unique-write-contiguity", bad != "", orDetail(bad, "once-written read intervals contiguous"))

	return checks, violated
}

// orDetail picks the failure detail when present, else the pass detail.
func orDetail(bad, ok string) string {
	if bad != "" {
		return bad
	}
	return ok
}
