package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// maxBodyBytes bounds a request body; a trace bigger than this is
// rejected before parsing rather than buffered.
const maxBodyBytes = 32 << 20

// VerifyRequest is the body of POST /v1/verify. Two encodings are
// accepted: an application/json envelope of this shape, or a raw trace
// text body (any other content type) with the remaining fields supplied
// as URL query parameters of the same names.
type VerifyRequest struct {
	// Trace is the execution in the trace text format (see README).
	Trace string `json:"trace"`
	// Model picks the consistency model: sc, tso, pso, coherence
	// (default), lrc or vscc.
	Model string `json:"model,omitempty"`
	// Strategy picks the escalation-ladder preset: auto (default), fast,
	// exact or resilient ("portfolio" is accepted as fast; responses
	// and cache keys name the canonical strategy).
	Strategy string `json:"strategy,omitempty"`
	// MaxStates bounds the states explored per solve (0 = server
	// default; always clamped to the server's ceiling).
	MaxStates int `json:"max_states,omitempty"`
	// TimeoutMS bounds the wall-clock time per solve in milliseconds
	// (0 = server default; clamped to the server's ceiling).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// UseOrder feeds the trace's order lines to the verifier: as a
	// search constraint for model sc, as ladder hints for the resilient
	// strategy.
	UseOrder bool `json:"use_order,omitempty"`
	// DeadlineMS is the caller's remaining budget for this request in
	// milliseconds (0 = none). The X-Deadline-Ms header carries the same
	// value and wins when both are present — it is visible before the
	// body, so the server can shed an unserviceable request without
	// parsing it.
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// AddrResult is the per-address slice of a coherence verdict.
type AddrResult struct {
	Addr      string `json:"addr"`
	Verdict   string `json:"verdict"` // coherent | incoherent | unknown
	Algorithm string `json:"algorithm,omitempty"`
	States    int    `json:"states"`
	// Workers is the effective parallel-search team size on this address
	// — the workers that actually engaged, not the -psearch ask. Present
	// only when the parallel search ran with more than one worker.
	Workers int `json:"workers,omitempty"`
}

// StatsJSON summarizes solver work in the response.
type StatsJSON struct {
	States     int     `json:"states"`
	MemoHits   int     `json:"memo_hits"`
	Branches   int     `json:"branches"`
	DurationMS float64 `json:"duration_ms"`
}

// VerifyResponse is the body of a successful POST /v1/verify. Verdict
// is "coherent"/"incoherent" for model coherence,
// "consistent"/"inconsistent" for the whole-execution models, and
// "undecided" when the budget ran out first (Reason says which bound
// tripped; HTTP status is still 200 — exhaustion is an answer about the
// budget, not a server failure).
type VerifyResponse struct {
	Verdict   string       `json:"verdict"`
	Model     string       `json:"model"`
	Strategy  string       `json:"strategy"`
	Algorithm string       `json:"algorithm,omitempty"`
	Violation string       `json:"violation,omitempty"`
	Reason    string       `json:"reason,omitempty"`
	Addrs     []AddrResult `json:"addrs,omitempty"`
	Stats     StatsJSON    `json:"stats"`
	Cached    bool         `json:"cached"`
	ElapsedMS float64      `json:"elapsed_ms"`
	// RequestID echoes the X-Request-ID header in the body, so a logged
	// response can be joined against the server's JSONL trace spans.
	RequestID string `json:"request_id,omitempty"`
	// Timings is the per-stage latency breakdown (milliseconds), present
	// only when the request asked for it with ?debug=timings.
	Timings map[string]float64 `json:"timings,omitempty"`
	// Degraded marks a brownout answer: the server was saturated and
	// served this request with its own strategy under shrunken budgets.
	// DegradeReason says why.
	Degraded      bool   `json:"degraded,omitempty"`
	DegradeReason string `json:"degrade_reason,omitempty"`
}

// ErrorResponse is the body of every non-200 response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// statsJSON converts solver stats to the wire shape.
func statsJSON(s solver.Stats) StatsJSON {
	return StatsJSON{
		States:     s.States,
		MemoHits:   s.MemoHits,
		Branches:   s.Branches,
		DurationMS: float64(s.Duration) / float64(time.Millisecond),
	}
}

// readVerifyRequest decodes the two request encodings.
func readVerifyRequest(r *http.Request) (*VerifyRequest, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	if len(body) > maxBodyBytes {
		return nil, fmt.Errorf("body exceeds %d bytes", maxBodyBytes)
	}
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	var req *VerifyRequest
	if ct == "application/json" {
		req = new(VerifyRequest)
		if err := json.Unmarshal(body, req); err != nil {
			return nil, fmt.Errorf("decoding request: %w", err)
		}
	} else {
		q := r.URL.Query()
		req = &VerifyRequest{
			Trace:    string(body),
			Model:    q.Get("model"),
			Strategy: q.Get("strategy"),
		}
		if v := q.Get("max_states"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("bad max_states %q", v)
			}
			req.MaxStates = n
		}
		if v := q.Get("timeout_ms"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("bad timeout_ms %q", v)
			}
			req.TimeoutMS = n
		}
		if v := q.Get("use_order"); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				return nil, fmt.Errorf("bad use_order %q", v)
			}
			req.UseOrder = b
		}
		if v := q.Get("deadline_ms"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("bad deadline_ms %q", v)
			}
			req.DeadlineMS = n
		}
	}
	// Validate after decoding so both encodings face the same rules. A
	// negative budget would read as "unlimited" downstream (budgetFor
	// only substitutes defaults for zero, and the solver treats
	// non-positive bounds as absent), silently bypassing the server
	// ceilings.
	if req.MaxStates < 0 {
		return nil, fmt.Errorf("bad max_states %d: must be >= 0", req.MaxStates)
	}
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("bad timeout_ms %d: must be >= 0", req.TimeoutMS)
	}
	if req.DeadlineMS < 0 {
		return nil, fmt.Errorf("bad deadline_ms %d: must be >= 0", req.DeadlineMS)
	}
	return req, nil
}

// deadlineFrom reads the X-Deadline-Ms header — the caller's remaining
// budget in milliseconds — into an absolute deadline. Zero time means
// no deadline was propagated. A non-positive value is a valid header
// (the deadline already passed upstream); the caller answers it 504.
func deadlineFrom(r *http.Request) (time.Time, error) {
	h := strings.TrimSpace(r.Header.Get("X-Deadline-Ms"))
	if h == "" {
		return time.Time{}, nil
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil {
		return time.Time{}, fmt.Errorf("bad X-Deadline-Ms %q", h)
	}
	return time.Now().Add(time.Duration(ms) * time.Millisecond), nil
}

// cacheKey builds the result-cache key: the execution fingerprint plus
// every request knob that can change the verdict. Model and strategy
// are the parsed canonical spellings, so "", "coherence" and
// "COHERENCE" share one entry. When the request uses order lines the
// orders themselves join the key — the execution fingerprint covers
// histories/initial/final only, and two identical executions with
// different order lines can verify differently. Worker count is
// deliberately absent — parallelism never changes answers.
func cacheKey(fp, model, strategy string, maxStates int, timeout time.Duration, useOrder bool, orders map[memory.Addr][]memory.Ref) string {
	var b strings.Builder
	b.WriteString(fp)
	fmt.Fprintf(&b, "|m=%s|s=%s|n=%d|t=%d|o=%t", model, strategy, maxStates, timeout, useOrder)
	if useOrder {
		b.WriteString("|w=")
		b.WriteString(writeOrdersDigest(orders))
	}
	return b.String()
}

// writeOrdersDigest hashes per-address write orders deterministically:
// addresses sorted, refs in order.
func writeOrdersDigest(orders map[memory.Addr][]memory.Ref) string {
	addrs := make([]memory.Addr, 0, len(orders))
	for a := range orders {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	h := sha256.New()
	for _, a := range addrs {
		fmt.Fprintf(h, "a%d:", a)
		for _, r := range orders[a] {
			fmt.Fprintf(h, "%d.%d,", r.Proc, r.Index)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}
