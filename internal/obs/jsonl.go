package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// jsonEvent is the wire shape of one JSONL line. Pointer fields encode
// "present but possibly zero" (worker 0, address 0, depth 0 are all
// meaningful); plain omitempty fields treat zero as absent.
type jsonEvent struct {
	TS     int64   `json:"ts"`
	Ev     string  `json:"ev"`
	Span   uint64  `json:"span,omitempty"`
	Parent *uint64 `json:"parent,omitempty"`
	Name   string  `json:"name,omitempty"`
	Addr   *int64  `json:"addr,omitempty"`
	Depth  *int    `json:"depth,omitempty"`
	States *int64  `json:"states,omitempty"`
	N      *int64  `json:"n,omitempty"`
	Proc   *int    `json:"proc,omitempty"`
	Detail string  `json:"detail,omitempty"`
	Req    string  `json:"req,omitempty"`
}

// depthKinds are the kinds whose Depth field is meaningful even at 0.
func depthMeaningful(k Kind) bool {
	switch k {
	case KindStateEnter, KindBacktrack, KindMemoHit, KindMemoMiss,
		KindEagerReads, KindBudgetPoll:
		return true
	}
	return false
}

// procMeaningful reports whether the Proc field should be encoded.
func procMeaningful(k Kind) bool {
	switch k {
	case KindSpanBegin, KindWorkerStart, KindWorkerEnd, KindBus, KindDirectory:
		return true
	}
	return false
}

// JSONL is a Sink writing one JSON object per line, buffered, safe for
// concurrent emitters. Close (or Flush) must be called to drain the
// buffer.
type JSONL struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONL wraps w in a buffered JSONL sink.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriter(w)
	return &JSONL{bw: bw, enc: json.NewEncoder(bw)}
}

// Emit writes one event as a JSON line. Write errors are sticky and
// reported by Flush/Close.
func (j *JSONL) Emit(e Event) {
	je := jsonEvent{
		TS:     e.TS,
		Ev:     e.Kind.String(),
		Span:   e.Span,
		Name:   e.Name,
		Detail: e.Detail,
		Req:    e.Req,
	}
	if e.Kind == KindSpanBegin && e.Parent != 0 {
		je.Parent = &e.Parent
	}
	if e.HasAddr {
		je.Addr = &e.Addr
	}
	if e.Depth != 0 || depthMeaningful(e.Kind) {
		je.Depth = &e.Depth
	}
	if e.States != 0 {
		je.States = &e.States
	}
	if e.N != 0 {
		je.N = &e.N
	}
	if e.Proc >= 0 && procMeaningful(e.Kind) {
		je.Proc = &e.Proc
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(je)
}

// Flush drains the buffer and returns the first write error, if any.
func (j *JSONL) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	j.err = j.bw.Flush()
	return j.err
}

// Close is Flush (the underlying writer's lifetime belongs to the
// caller).
func (j *JSONL) Close() error { return j.Flush() }
