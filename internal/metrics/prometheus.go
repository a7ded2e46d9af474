package metrics

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// PrometheusPrefix is prepended to every canonical metric name in the
// Prometheus exposition so scrape configs can select the whole family with
// one matcher.
const PrometheusPrefix = "scuba_"

// Prometheus renders the snapshot in the Prometheus text exposition format
// (text/plain; version=0.0.4):
//
//   - counters and plain gauges keep their integer values;
//   - duration gauges (SetDuration, stored in µs) become <name>_seconds
//     gauges in float seconds, per Prometheus base-unit convention;
//   - timers become <name>_seconds summaries (_count and _sum only — the
//     Timer keeps no distribution);
//   - histograms expose their power-of-two buckets as cumulative le-bound
//     buckets plus _sum and _count; duration histograms are converted from
//     µs to <name>_seconds with float le bounds.
//
// Every name is CanonicalName'd and prefixed with PrometheusPrefix, and
// families sort lexically so scrapes are byte-stable for equal snapshots.
//
// Every sample line is "name{labels} value", and the exposition ends with
// the comment "# EOF", which a 0.0.4 scraper skips like any other comment.
func (s Snapshot) Prometheus() string {
	var b strings.Builder
	if s.Build != nil {
		fam := PrometheusPrefix + "build_info"
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s{version=%q,commit=%q,go_version=%q} 1\n",
			fam, fam, s.Build.Version, s.Build.Commit, s.Build.GoVersion)
	}
	for _, name := range sortedKeys(s.Counters) {
		fam := PrometheusPrefix + CanonicalName(name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", fam, fam, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		g := s.Gauges[name]
		fam := PrometheusPrefix + CanonicalName(name)
		if g.Unit == "us" {
			fam += "_seconds"
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", fam, fam, promFloat(float64(g.Value)/1e6))
		} else {
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", fam, fam, g.Value)
		}
	}
	for _, name := range sortedKeys(s.Timers) {
		st := s.Timers[name]
		fam := PrometheusPrefix + CanonicalName(name) + "_seconds"
		fmt.Fprintf(&b, "# TYPE %s summary\n", fam)
		fmt.Fprintf(&b, "%s_count %d\n", fam, st.Count)
		fmt.Fprintf(&b, "%s_sum %s\n", fam, promFloat(st.Total.Seconds()))
	}
	for _, name := range sortedKeys(s.Histograms) {
		st := s.Histograms[name]
		fam := PrometheusPrefix + CanonicalName(name)
		if st.IsDuration {
			fam += "_seconds"
		}
		fmt.Fprintf(&b, "# TYPE %s histogram\n", fam)
		var cum int64
		for _, bk := range st.Buckets {
			cum += bk.Count
			le := strconv.FormatInt(bk.Le, 10)
			if st.IsDuration {
				le = promFloat(float64(bk.Le) / 1e6)
			}
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", fam, le, cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", fam, st.Count)
		sum := strconv.FormatInt(st.Sum, 10)
		if st.IsDuration {
			sum = promFloat(float64(st.Sum) / 1e6)
		}
		fmt.Fprintf(&b, "%s_sum %s\n", fam, sum)
		fmt.Fprintf(&b, "%s_count %d\n", fam, st.Count)
	}
	b.WriteString("# EOF\n")
	return b.String()
}

// Prometheus renders the registry's current snapshot in Prometheus text
// exposition format.
func (r *Registry) Prometheus() string { return r.Snapshot().Prometheus() }

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
