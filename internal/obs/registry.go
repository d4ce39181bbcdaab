package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a set of named counters, gauges, and histograms — the
// data model behind the Prometheus text exposition of PromHandler. A
// metric is identified by its name plus an ordered label set; calling a
// constructor twice with the same identity returns the same instrument,
// so packages can look instruments up by name instead of threading
// pointers. All methods are safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	byID    map[string]*instrument
	ordered []*instrument
	help    map[string]string

	searchOnce sync.Once
	search     *SearchCounters
}

// instrumentKind discriminates the exposition type.
type instrumentKind uint8

const (
	kindCounter instrumentKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// Label is one name/value pair attached to an instrument.
type Label struct {
	Key, Value string
}

// instrument is one registered time series.
type instrument struct {
	name   string
	labels []Label
	kind   instrumentKind
	val    atomic.Int64   // counter, gauge
	fn     func() float64 // gauge func
	hist   *Histogram
}

// Counter is a monotonically increasing register.
type Counter struct{ i *instrument }

// Add increases the counter; Inc by one.
func (c Counter) Add(n int64) { c.i.val.Add(n) }
func (c Counter) Inc()        { c.i.val.Add(1) }

// Value reads the current count.
func (c Counter) Value() int64 { return c.i.val.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct{ i *instrument }

// Set stores the gauge value; Add adjusts it by n (n may be negative).
func (g Gauge) Set(v int64)  { g.i.val.Store(v) }
func (g Gauge) Add(n int64)  { g.i.val.Add(n) }
func (g Gauge) Value() int64 { return g.i.val.Load() }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]*instrument), help: make(map[string]string)}
}

// metricID builds the identity string "name{k=v,...}".
func metricID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// register returns the instrument for (name, labels), creating it with
// kind when absent. A name registered under two different kinds panics:
// that is a programming error, not a runtime condition.
func (r *Registry) register(name string, kind instrumentKind, labels []Label) *instrument {
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.byID[id]; ok {
		if in.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as a different kind", id))
		}
		return in
	}
	in := &instrument{name: name, labels: append([]Label(nil), labels...), kind: kind}
	if kind == kindHistogram {
		in.hist = NewHistogram()
	}
	r.byID[id] = in
	r.ordered = append(r.ordered, in)
	return in
}

// Counter returns the counter named name with the given labels,
// creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) Counter {
	return Counter{r.register(name, kindCounter, labels)}
}

// Gauge returns the settable gauge named name.
func (r *Registry) Gauge(name string, labels ...Label) Gauge {
	return Gauge{r.register(name, kindGauge, labels)}
}

// GaugeFunc registers a gauge whose value is sampled by fn at
// exposition time — the natural shape for live values the server
// already owns (queue length, in-flight count). Re-registering the same
// identity replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	in := r.register(name, kindGaugeFunc, labels)
	r.mu.Lock()
	in.fn = fn
	r.mu.Unlock()
}

// Histogram returns the histogram named name, creating it on first
// use. Registry histograms record durations in nanoseconds; the
// Prometheus exposition converts to seconds (name them *_seconds).
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.register(name, kindHistogram, labels).hist
}

// SetHelp attaches a HELP line to every series of name.
func (r *Registry) SetHelp(name, help string) {
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

// series is one fully-evaluated time series: identity plus the value
// sampled at gather time.
type series struct {
	labels []Label
	value  float64      // counter, gauge, gauge func
	hist   HistSnapshot // histogram
}

// family groups the series sharing one metric name for exposition.
type family struct {
	name   string
	kind   instrumentKind
	help   string
	series []series
}

// gather evaluates every registered instrument — counters and gauges
// read, gauge functions sampled, histograms snapshotted — and returns
// the result grouped by name, families and series both sorted for
// deterministic exposition. Sampling happens under the registry lock,
// so gauge functions must not call back into the registry.
func (r *Registry) gather() []family {
	r.mu.Lock()
	defer r.mu.Unlock()
	byName := make(map[string]*family)
	var names []string
	for _, in := range r.ordered {
		f, ok := byName[in.name]
		if !ok {
			f = &family{name: in.name, kind: in.kind, help: r.help[in.name]}
			byName[in.name] = f
			names = append(names, in.name)
		}
		s := series{labels: in.labels}
		switch in.kind {
		case kindCounter, kindGauge:
			s.value = float64(in.val.Load())
		case kindGaugeFunc:
			if in.fn != nil {
				s.value = in.fn()
			}
		case kindHistogram:
			s.hist = in.hist.Snapshot()
		}
		f.series = append(f.series, s)
	}
	sort.Strings(names)
	out := make([]family, 0, len(names))
	for _, n := range names {
		f := byName[n]
		sort.Slice(f.series, func(i, j int) bool {
			return metricID(f.name, f.series[i].labels) < metricID(f.name, f.series[j].labels)
		})
		out = append(out, *f)
	}
	return out
}
