package metrics

import (
	"runtime"
	"runtime/debug"
	"time"
)

// BuildInfo identifies the running binary on every /metrics surface:
// scuba_build_info{version,commit,go_version} 1 in the Prometheus
// exposition, an "info build" line in the text format.
type BuildInfo struct {
	Version   string
	Commit    string
	GoVersion string
}

// EnableProcessMetrics turns on process identity self-metrics:
//
//	up.seconds   gauge, seconds since this call (process start for daemons
//	             that call it from main), refreshed on every Snapshot
//	build_info   version / vcs commit / Go toolchain from the binary's
//	             embedded build info, constant for the process lifetime
//
// Version falls back to "unknown" for non-module builds and commit to
// "unknown" when the binary was built outside a VCS checkout (go test,
// plain go build of a dirty tree without stamping). Idempotent; the first
// call pins the start time.
func (r *Registry) EnableProcessMetrics() {
	bi := BuildInfo{Version: "unknown", Commit: "unknown", GoVersion: runtime.Version()}
	if info, ok := debug.ReadBuildInfo(); ok {
		if info.Main.Version != "" && info.Main.Version != "(devel)" {
			bi.Version = info.Main.Version
		}
		if info.GoVersion != "" {
			bi.GoVersion = info.GoVersion
		}
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				bi.Commit = s.Value
			}
		}
	}
	r.mu.Lock()
	if r.build == nil {
		r.build = &bi
	}
	r.mu.Unlock()
	start := time.Now()
	r.OnSnapshot("process", func() {
		r.Gauge("up.seconds").Set(int64(time.Since(start).Seconds()))
	})
}

// Build returns the build info captured by EnableProcessMetrics (zero value
// before the call).
func (r *Registry) Build() BuildInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.build == nil {
		return BuildInfo{}
	}
	return *r.build
}
