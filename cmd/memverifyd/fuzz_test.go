package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzVerifyRequest feeds arbitrary bodies, content types, query strings
// and X-Deadline-Ms values through the service handler. Whatever the
// input, the server must answer from a client error or a verdict: no 5xx
// but a 504 for an expired deadline, no recovered panic, and a JSON body
// carrying a verdict on 200 and an error otherwise.
func FuzzVerifyRequest(f *testing.F) {
	const (
		smokeOK  = "P0: W x 1\nP0: W x 2\nP1: R x 1\nP1: R x 2\n"
		smokeBad = "init x 0\nP0: W x 1\nP0: W x 2\nP1: R x 2\nP1: R x 1\n"
		ordered  = "init x 0\nP0: W x 1\nP0: W x 2\nP1: R x 1\norder x P0[0] P0[1]\n"
	)
	f.Add(smokeOK, false, "debug=timings", "")
	f.Add(smokeBad, false, "model=sc", "")
	f.Add(`{"trace":"init x 0\nP0: W x 1\nP1: R x 1\n","model":"coherence","strategy":"exact","max_states":100,"timeout_ms":50,"deadline_ms":1000}`, true, "", "")
	f.Add(`{"trace":"`+strings.ReplaceAll(ordered, "\n", `\n`)+`","model":"sc","use_order":true}`, true, "", "")
	for _, q := range []string{"model=tso", "model=pso", "model=vscc", "model=lrc", "strategy=resilient",
		"strategy=fast", "max_states=5", "timeout_ms=10", "use_order=true", "deadline_ms=500"} {
		f.Add(ordered, false, q, "")
	}
	for _, q := range []string{"max_states=-1", "timeout_ms=-5", "deadline_ms=-1", "max_states=x"} {
		f.Add(smokeOK, false, q, "")
	}
	f.Add(`{"trace":"P0: W x 1\n","max_states":-1,"timeout_ms":-1,"deadline_ms":-1}`, true, "", "")
	f.Add(smokeOK, false, "", "abc")
	f.Add(smokeOK, false, "", "-5")
	f.Add(smokeOK, false, "", "250")

	s := newServer(serverConfig{workers: 2, maxStatesCap: 10000, timeoutCap: 200 * time.Millisecond})
	f.Cleanup(s.Close)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body string, asJSON bool, query, deadline string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/verify", strings.NewReader(body))
		req.URL.RawQuery = query
		req.Header.Set("Content-Type", "text/plain")
		if asJSON {
			req.Header.Set("Content-Type", "application/json")
		}
		if deadline != "" {
			req.Header.Set("X-Deadline-Ms", deadline)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		if rec.Code >= 500 && rec.Code != http.StatusGatewayTimeout {
			t.Errorf("status %d: %s", rec.Code, rec.Body)
		}
		if p, wp := s.stats.Panics.Value(), s.stats.WorkerPanics.Value(); p != 0 || wp != 0 {
			t.Fatalf("recovered panics: %d in handlers, %d in workers", p, wp)
		}
		var out map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("status %d body is not JSON: %v: %q", rec.Code, err, rec.Body)
		}
		field := "error"
		if rec.Code == http.StatusOK {
			field = "verdict"
		}
		if v, _ := out[field].(string); v == "" {
			t.Errorf("status %d body lacks %q: %s", rec.Code, field, rec.Body)
		}
	})
}
