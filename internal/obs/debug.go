package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// DebugHandler returns the handler behind the -debug-addr flag: expvar
// at /debug/vars, with r rendered under the name "memverify", and the
// standard pprof profiles at /debug/pprof/. Split from ServeDebug so
// tests can exercise it without opening a socket.
func DebugHandler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		// expvar's own format, with the registry added per handler:
		// expvar names are process-global, and a process may hold more
		// than one registry.
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, "{\n%q: %s", "memverify", registryJSON(r))
		expvar.Do(func(kv expvar.KeyValue) {
			fmt.Fprintf(w, ",\n%q: %s", kv.Key, kv.Value)
		})
		fmt.Fprintf(w, "\n}\n")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "memverify debug endpoint: /debug/vars, /debug/pprof/")
	})
	return mux
}

// registryJSON renders every series of r as one JSON object keyed by
// its identity, name{label="value",...}: counters and gauges as numbers,
// histograms as their count and their sum in seconds.
func registryJSON(r *Registry) []byte {
	out := map[string]any{}
	for _, f := range r.gather() {
		for _, s := range f.series {
			id := metricID(f.name, s.labels)
			if f.kind == kindHistogram {
				out[id] = map[string]any{"count": s.hist.Count, "sum_seconds": float64(s.hist.Sum) / 1e9}
			} else {
				out[id] = s.value
			}
		}
	}
	b, _ := json.Marshal(out)
	return b
}

// ServeDebug starts the debug endpoint on addr (e.g. "localhost:6060")
// in a background goroutine and returns the server for shutdown. The
// returned server's Addr field holds the bound address, so addr may use
// port 0.
func ServeDebug(addr string, r *Registry) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: DebugHandler(r)}
	go srv.Serve(ln)
	return srv, nil
}
