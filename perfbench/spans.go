package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// verdict or request share Item; Parent is the span that caused this one
// (0 for a root).
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Item   string             `json:"item"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Alloc  uint64             `json:"alloc_bytes,omitempty"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	alloc0 uint64
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced runs pay only a nil check per call.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	alloc []metrics.Sample
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), alloc: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

// heapAllocs is the process's cumulative heap allocation in bytes. Calls
// on the benchmark's own goroutine see their own allocations plus any a
// concurrent goroutine makes, so begin/end alloc deltas are exact only
// for single-goroutine calls.
func (r *recorder) heapAllocs() uint64 {
	metrics.Read(r.alloc)
	return r.alloc[0].Value.Uint64()
}

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name, item string, parent int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.heapAllocs()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Item: item,
		Start: int64(time.Since(r.t0)), alloc0: a})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = int64(time.Since(r.t0))
	s.Alloc = r.heapAllocs() - s.alloc0
}

// add records a span timed elsewhere, such as an HTTP request made on a
// load-generator goroutine.
func (r *recorder) add(name, item string, parent int, start, end time.Time, attrs map[string]float64) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Item: item,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)), Attrs: attrs})
	return len(r.spans)
}

// attr attaches a named number to span id.
func (r *recorder) attr(id int, key string, v float64) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	if s.Attrs == nil {
		s.Attrs = map[string]float64{}
	}
	s.Attrs[key] = v
}

// layer summarizes every span of one name: how many there were, their
// mean self time (duration minus the part child spans cover), their
// mean heap allocation, and the sum of each attribute.
type layer struct {
	n       int
	selfMS  float64
	allocMB float64
	attrs   map[string]float64
}

// busyS is the layer's total self time in seconds.
func (l *layer) busyS() float64 { return l.selfMS * float64(l.n) / 1000 }

// layers summarizes the spans by name. A name with no spans maps to an
// empty layer.
func (r *recorder) layers() func(name string) *layer {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layer{}
	for _, s := range r.spans {
		l := out[s.Name]
		if l == nil {
			l = &layer{attrs: map[string]float64{}}
			out[s.Name] = l
		}
		l.n++
		l.selfMS += float64(s.End-s.Start-child[s.ID]) / 1e6
		l.allocMB += float64(s.Alloc) / (1 << 20)
		for k, v := range s.Attrs {
			l.attrs[k] += v
		}
	}
	for _, l := range out {
		l.selfMS /= float64(l.n)
		l.allocMB /= float64(l.n)
	}
	return func(name string) *layer {
		if l := out[name]; l != nil {
			return l
		}
		return &layer{}
	}
}

// writeJSONL writes every span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
