package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"scuba/internal/metrics"
)

// HandlerConfig configures the daemon observability mux.
type HandlerConfig struct {
	// Registry backs /metrics (nil serves an empty exposition).
	Registry *metrics.Registry
	// Recovery supplies /debug/recovery's live recovery state
	// (leaf.RecoveryInfo for scubad; nil for daemons without one). Called
	// per request.
	Recovery func() any
}

// Handler builds the daemon observability mux:
//
//	/metrics         the registry in the Prometheus text exposition
//	/debug/recovery  {"recovery": <the live recovery state>}
//	/debug/pprof/*   net/http/pprof
//	/                plain-text index of the above
//
// A restart's spans and the flight recorder's events are read from
// __system.traces and __system.recorder, not from here.
func Handler(cfg HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	started := time.Now()

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		var snap metrics.Snapshot
		if cfg.Registry != nil {
			snap = cfg.Registry.Snapshot()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, snap.Prometheus())
	})

	mux.HandleFunc("/debug/recovery", func(w http.ResponseWriter, _ *http.Request) {
		var body struct {
			Recovery any `json:"recovery,omitempty"`
		}
		if cfg.Recovery != nil {
			body.Recovery = cfg.Recovery()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(body) //nolint:errcheck // best effort over HTTP
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
