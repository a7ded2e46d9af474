package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// RecoveryDump is the /debug/recovery response body.
type RecoveryDump struct {
	// Recovery is daemon-specific recovery state (leaf.RecoveryInfo for
	// scubad; nil for daemons without a recovery notion).
	Recovery any `json:"recovery,omitempty"`
	// Restart is the restart ledger: the previous process's shutdown half as
	// read back from its flight-recorder ring, then this process's start
	// half — one trace ID when one handed over to the other.
	Restart Trace `json:"restart,omitempty"`
	// PreviousRun summarizes the flight-recorder events left by the
	// previous process — the answer to "why did the restore fail".
	PreviousRun *RunSummary `json:"previous_run,omitempty"`
	// PreviousEvents is the previous run's full event dump, oldest first.
	PreviousEvents []Event `json:"previous_events,omitempty"`
	// CurrentRun summarizes this process's events so far.
	CurrentRun *RunSummary `json:"current_run,omitempty"`
	// CurrentEvents is this run's full event dump, oldest first.
	CurrentEvents []Event `json:"current_events,omitempty"`
}

// HandlerConfig configures the daemon observability mux.
type HandlerConfig struct {
	// Registry backs /metrics (required in practice; nil serves empty).
	Registry interface{ String() string }
	// Recorder backs the flight-recorder half of /debug/recovery (nil for
	// daemons without one).
	Recorder *Recorder
	// Recovery supplies the daemon-specific half of /debug/recovery (nil
	// omits it). Called per request, so it can return live state.
	Recovery func() any
	// Restart supplies the restart ledger for /debug/recovery (nil omits it).
	Restart func() Trace
}

// Handler builds the daemon observability mux:
//
//	/metrics         registry text format
//	/debug/recovery  RecoveryDump JSON
//	/debug/pprof/*   net/http/pprof
//	/                plain-text index of the above
func Handler(cfg HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	started := time.Now()

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "prometheus" {
			prom, ok := cfg.Registry.(interface{ Prometheus() string })
			if !ok {
				http.Error(w, "prometheus exposition unavailable", http.StatusNotImplemented)
				return
			}
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			fmt.Fprint(w, prom.Prometheus())
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if cfg.Registry != nil {
			fmt.Fprintln(w, cfg.Registry.String())
		}
	})

	mux.HandleFunc("/debug/recovery", func(w http.ResponseWriter, _ *http.Request) {
		dump := RecoveryDump{}
		if cfg.Recovery != nil {
			dump.Recovery = cfg.Recovery()
		}
		if cfg.Restart != nil {
			dump.Restart = cfg.Restart()
		}
		if cfg.Recorder != nil {
			prev := cfg.Recorder.Previous()
			cur := cfg.Recorder.Events()
			if len(prev) > 0 {
				s := Summarize(prev)
				dump.PreviousRun = &s
				dump.PreviousEvents = prev
			}
			if len(cur) > 0 {
				s := Summarize(cur)
				dump.CurrentRun = &s
				dump.CurrentEvents = cur
			}
		}
		writeJSON(w, dump)
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "scuba observability (up %v)\n\n/metrics\n/debug/recovery\n/debug/pprof/\n",
			time.Since(started).Round(time.Second))
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best effort over HTTP
}

// HTTPServer is one daemon's observability listener.
type HTTPServer struct {
	srv *http.Server
	ln  net.Listener
}

// StartHTTP serves the handler on addr (use ":0" for an ephemeral port) in
// a background goroutine.
func StartHTTP(addr string, h http.Handler) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: http listen: %w", err)
	}
	s := &HTTPServer{srv: &http.Server{Handler: h}, ln: ln}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns on Close
	return s, nil
}

// Addr returns the bound address.
func (s *HTTPServer) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and all connections.
func (s *HTTPServer) Close() error { return s.srv.Close() }
