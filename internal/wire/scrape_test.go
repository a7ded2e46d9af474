package wire

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"scuba/internal/metrics"
	"scuba/internal/obs"
)

// sample004 is a sample line of the Prometheus text format 0.0.4:
// name{label="value",...} value [timestamp]. Nothing may follow.
var sample004 = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*` +
	`(\{[a-zA-Z_][a-zA-Z0-9_]*="([^"\\\n]|\\.)*"(,[a-zA-Z_][a-zA-Z0-9_]*="([^"\\\n]|\\.)*")*,?\})?` +
	` ([-+]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][-+]?[0-9]+)?|NaN|[-+]?Inf)( -?[0-9]+)?$`)

// TestScrapeAfterTracedQueryIsTextFormat004: after a leaf server and an
// aggregator have each timed a traced query, every line of a /metrics scrape
// is a comment or a 0.0.4 sample — a traced query leaves nothing on a bucket
// line that a Prometheus server would refuse.
func TestScrapeAfterTracedQueryIsTextFormat004(t *testing.T) {
	_, c, l := newServer(t, 88)
	if err := c.AddRows("events", mkRows(100, 1000)); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	s, err := NewServerOn(l, "127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	as, err := NewAggServerOn([]string{s.Addr()}, "127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer as.Close()
	up := Dial(as.Addr())
	defer up.Close()
	tc := obs.TraceContext{TraceID: obs.RandomID(), SpanID: obs.RandomID()}
	if _, _, err := up.QueryTraced(countQuery(), tc); err != nil {
		t.Fatal(err)
	}
	// The latency is observed once per layer, by one timer: no other
	// family holds it.
	snap := reg.Snapshot()
	if st := snap.Timers["query.latency"]; st.Count != 2 {
		t.Fatalf("query.latency count = %d, want the leaf's and the aggregator's", st.Count)
	}
	for name := range snap.Histograms {
		if strings.Contains(name, "latency") {
			t.Errorf("histogram %q holds a latency the query.latency timer already has", name)
		}
	}
	for name := range snap.Timers {
		if strings.Contains(name, "latency") && name != "query.latency" && name != "query.exec.latency" {
			t.Errorf("timer %q holds a latency the query.latency timer already has", name)
		}
	}

	srv := httptest.NewServer(obs.Handler(obs.HandlerConfig{Registry: reg}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var buckets int
	for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sample004.MatchString(line) {
			t.Errorf("not a 0.0.4 sample line: %q", line)
		}
		if strings.HasPrefix(line, "scuba_query_latency_seconds_bucket{") {
			buckets++
		}
	}
	if buckets == 0 {
		t.Fatalf("no query latency buckets in the scrape:\n%s", body)
	}
}
