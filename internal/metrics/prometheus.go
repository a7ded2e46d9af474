package metrics

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// PrometheusPrefix is prepended to every canonical metric name in the
// Prometheus exposition so scrape configs can select the whole family with
// one matcher.
const PrometheusPrefix = "scuba_"

// Prometheus renders the snapshot in the Prometheus text exposition format
// (text/plain; version=0.0.4):
//
//   - counters and gauges keep their integer values;
//   - timers become <name>_seconds histograms: their power-of-two
//     nanosecond buckets as cumulative buckets with float le bounds in
//     seconds, plus _sum and _count;
//   - histograms render the same way with integer le bounds and _sum.
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
		fam := PrometheusPrefix + CanonicalName(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", fam, fam, s.Gauges[name])
	}
	seconds := func(ns int64) string { return promFloat(time.Duration(ns).Seconds()) }
	for _, name := range sortedKeys(s.Timers) {
		st := s.Timers[name]
		writeHistogram(&b, PrometheusPrefix+CanonicalName(name)+"_seconds",
			st.Buckets, st.Count, int64(st.Total), seconds)
	}
	integer := func(v int64) string { return strconv.FormatInt(v, 10) }
	for _, name := range sortedKeys(s.Histograms) {
		st := s.Histograms[name]
		writeHistogram(&b, PrometheusPrefix+CanonicalName(name), st.Buckets, st.Count, st.Sum, integer)
	}
	b.WriteString("# EOF\n")
	return b.String()
}

// writeHistogram renders one histogram family: cumulative le buckets, the
// +Inf bucket, _sum and _count, with format spelling le bounds and the sum.
func writeHistogram(b *strings.Builder, fam string, buckets []HistogramBucket, count, sum int64, format func(int64) string) {
	fmt.Fprintf(b, "# TYPE %s histogram\n", fam)
	var cum int64
	for _, bk := range buckets {
		cum += bk.Count
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", fam, format(bk.Le), cum)
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", fam, count)
	fmt.Fprintf(b, "%s_sum %s\n%s_count %d\n", fam, format(sum), fam, count)
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
