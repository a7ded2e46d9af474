package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"scuba/internal/metrics"
)

func newTestHandler(t *testing.T) (http.Handler, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	h := Handler(HandlerConfig{
		Registry: reg,
		Recovery: func() any { return map[string]string{"path": "memory"} },
	})
	return h, reg
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestMetricsEndpoint: /metrics answers in the Prometheus text exposition,
// the registry's one HTTP rendering.
func TestMetricsEndpoint(t *testing.T) {
	h, reg := newTestHandler(t)
	reg.Counter("rpc.query").Add(3)
	reg.Timer(PhaseCopyIn).Observe(5 * time.Millisecond)
	reg.Timer("query.latency").Observe(2 * time.Millisecond)

	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, err = %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := string(b)
	for _, want := range []string{
		"# TYPE scuba_rpc_query counter",
		"scuba_rpc_query 3",
		"# TYPE scuba_restart_copy_in_seconds histogram",
		"scuba_restart_copy_in_seconds_count 1",
		"# TYPE scuba_query_latency_seconds histogram",
		`scuba_query_latency_seconds_bucket{le="+Inf"} 1`,
		"scuba_query_latency_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in:\n%s", want, body)
		}
	}
}

// TestMetricsEndpointPrometheus: a scrape config that still asks for
// ?format=prometheus gets the same exposition.
func TestMetricsEndpointPrometheus(t *testing.T) {
	h, reg := newTestHandler(t)
	reg.Counter("rpc.query").Add(3)
	reg.Timer("query.latency").Observe(2 * time.Millisecond)

	srv := httptest.NewServer(h)
	defer srv.Close()
	code, body := get(t, srv, "/metrics?format=prometheus")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if _, plain := get(t, srv, "/metrics"); body != plain {
		t.Errorf("?format=prometheus answered\n%s\nand /metrics\n%s", body, plain)
	}
}

// TestDebugRecoveryEndpoint: /debug/recovery is the live recovery state and
// nothing else.
func TestDebugRecoveryEndpoint(t *testing.T) {
	h, _ := newTestHandler(t)
	srv := httptest.NewServer(h)
	defer srv.Close()
	code, body := get(t, srv, "/debug/recovery")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var dump map[string]any
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if rec, ok := dump["recovery"].(map[string]any); len(dump) != 1 || !ok || rec["path"] != "memory" {
		t.Errorf("/debug/recovery = %s, want only the recovery member", body)
	}
}

func TestPprofAndIndex(t *testing.T) {
	h, _ := newTestHandler(t)
	srv := httptest.NewServer(h)
	defer srv.Close()
	if code, body := get(t, srv, "/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index: status %d", code)
	}
	if code, body := get(t, srv, "/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index: status %d body %q", code, body)
	}
	if code, _ := get(t, srv, "/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path status = %d", code)
	}
}

func TestStartHTTP(t *testing.T) {
	h, reg := newTestHandler(t)
	reg.Counter("up").Add(1)
	s, err := StartHTTP("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "scuba_up 1") {
		t.Errorf("body = %q", b)
	}
}
