package metrics

import (
	"strings"
	"testing"
)

func TestProcessMetricsDisabledByDefault(t *testing.T) {
	r := NewRegistry()
	snap := r.Snapshot()
	if snap.Build != nil {
		t.Fatalf("Build = %+v without EnableProcessMetrics", snap.Build)
	}
	if _, ok := snap.Gauges["up.seconds"]; ok {
		t.Fatal("up.seconds present without EnableProcessMetrics")
	}
	if !strings.Contains(r.Prometheus(), "# EOF") {
		t.Fatal("exposition missing # EOF terminator")
	}
	if strings.Contains(r.Prometheus(), "build_info") {
		t.Fatal("build_info rendered without EnableProcessMetrics")
	}
}

func TestProcessMetrics(t *testing.T) {
	r := NewRegistry()
	r.EnableProcessMetrics()
	r.EnableProcessMetrics() // idempotent
	snap := r.Snapshot()
	if snap.Build == nil {
		t.Fatal("Build is nil after EnableProcessMetrics")
	}
	// A test binary has no module version or vcs stamp; the fields must
	// still be non-empty so the label set is stable.
	if snap.Build.Version == "" || snap.Build.Commit == "" || snap.Build.GoVersion == "" {
		t.Fatalf("Build has empty fields: %+v", snap.Build)
	}
	if !strings.HasPrefix(snap.Build.GoVersion, "go") {
		t.Fatalf("GoVersion = %q", snap.Build.GoVersion)
	}
	up, ok := snap.Gauges["up.seconds"]
	if !ok || up.Value < 0 {
		t.Fatalf("up.seconds = %+v ok=%v", up, ok)
	}
	if got := r.Build(); got != *snap.Build {
		t.Fatalf("Build() = %+v, snapshot %+v", got, *snap.Build)
	}

	prom := snap.Prometheus()
	if !strings.Contains(prom, "# TYPE scuba_build_info gauge") {
		t.Fatalf("no build_info TYPE line:\n%s", prom)
	}
	if !strings.Contains(prom, `scuba_build_info{version=`) || !strings.Contains(prom, `go_version="go`) {
		t.Fatalf("no build_info sample line:\n%s", prom)
	}
	if !strings.Contains(prom, "scuba_up_seconds ") {
		t.Fatalf("no scuba_up_seconds gauge:\n%s", prom)
	}
}
