package main

import "fmt"

// metricDef is one metric as BENCHMARK.json lists it. Bound is the share of
// the parent's median by which an end-to-end metric may get worse.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// The driver wants every run to print every end-to-end metric, so the
// workloads share one vocabulary. Two names are roles, filled by each
// workload with the timing it exists to measure (see alias below and the
// README table): primary_ms is the user's wait on the path that does the
// work, secondary_ms the wait on the path that bypasses or contrasts it.
var endToEnd = []metricDef{
	{"query_p95_ms", "ms", "lower", 0.25},
	{"primary_ms", "ms", "lower", 0.25},
	{"secondary_ms", "ms", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"disk_bytes_per_row", "B/row", "lower", 0.02},
	{"mem_bytes_per_row", "B/row", "lower", 0.02},
	{"setup_s", "s", "lower", 0.25},
}

// alias names what a role metric measures on each workload, using the names
// of ISSUE 11.
var alias = map[string]map[string]string{
	"dash_read": {
		"primary_ms":       "scan_p50_ms",
		"secondary_ms":     "window_p50_ms",
		"throughput_per_s": "query_qps",
	},
	"ingest_fresh": {
		"primary_ms":       "freshness_p50_ms",
		"secondary_ms":     "freshness_p95_ms",
		"throughput_per_s": "ingest_rows_per_s",
	},
	"restart_shm": {
		"primary_ms":       "restart_gap_ms",
		"secondary_ms":     "instanton_gap_ms",
		"throughput_per_s": "cycle_ingest_rows_per_s",
	},
	"restart_crash": {
		"primary_ms":       "crash_gap_ms",
		"secondary_ms":     "disk_gap_ms",
		"throughput_per_s": "cycle_ingest_rows_per_s",
	},
}

func classMetrics(prefix, unit string) []metricDef {
	var out []metricDef
	for _, c := range queryClasses {
		out = append(out, metricDef{Name: prefix + "." + c, Unit: unit, Better: "lower"})
	}
	return out
}

// perLayer lists the traced run's metrics, layer = module name. A layer a
// workload does not exercise reports 0 there.
var perLayer = func() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		// ingest path
		lower("scribe.append_us_per_row", "us/row"),
		lower("tailer.encode_us_per_row", "us/row"),
		lower("tailer.decode_us_per_row", "us/row"),
		lower("tailer.drain_us_per_row", "us/row"),
		lower("tailer.rows_bad", "count"),
		lower("wire.addrows_us_per_row", "us/row"),
		lower("leaf.addrows_us_per_row", "us/row"),
		lower("leaf.addrows_nowal_us_per_row", "us/row"),
		lower("wal.us_per_row", "us/row"),
		lower("wal.fsyncs_per_batch", "count"),
		lower("wal.bytes_per_row", "B/row"),
		lower("rowblock.seal_us_per_row", "us/row"),
		lower("leaf.allocs_per_row", "count"),
		// background work and space
		lower("wal.snapshot_ms_per_mb", "ms/MB"),
		lower("disk.sync_ms_per_mb", "ms/MB"),
		lower("disk.bytes_per_row", "B/row"),
		lower("wal.dir_bytes_per_row", "B/row"),
		lower("rowblock.mem_bytes_per_row", "B/row"),
		lower("shm.bytes_per_row", "B/row"),
	}
	// query path, per class
	defs = append(defs, classMetrics("client.query_ms", "ms")...)
	defs = append(defs, classMetrics("leaf.query_ms", "ms")...)
	defs = append(defs, classMetrics("query.prune_ms", "ms")...)
	defs = append(defs, classMetrics("query.decode_ms", "ms")...)
	defs = append(defs, classMetrics("query.scan_ms", "ms")...)
	defs = append(defs, classMetrics("query.merge_ms", "ms")...)
	defs = append(defs, classMetrics("wire.query_overhead_ms", "ms")...)
	defs = append(defs, classMetrics("aggregator.overhead_ms", "ms")...)
	defs = append(defs,
		lower("query.scan_ns_per_row", "ns/row"),
		higher("query.pruned_ratio", "ratio"),
		higher("query.cache_hit_ratio", "ratio"),
		lower("leaf.allocs_per_query.scan", "count"),
		lower("wire.retries", "count"),
		lower("aggregator.partial_ratio", "ratio"),
		lower("client.probe_p50_ms", "ms"),
		lower("query.undercount_answers", "count"),
		// clean restart
		lower("leaf.shutdown_ms", "ms"),
		lower("shm.copy_out_ms", "ms"),
		lower("shm.commit_ms", "ms"),
		higher("shm.copy_out_mb_per_s", "MB/s"),
		lower("leaf.start_ms.memory", "ms"),
		lower("shm.map_ms", "ms"),
		lower("shm.copy_in_ms", "ms"),
		higher("shm.copy_in_mb_per_s", "MB/s"),
		lower("leaf.first_answer_ms.memory", "ms"),
		lower("leaf.start_ms.shm-view", "ms"),
		lower("shm.view_ms", "ms"),
		lower("leaf.first_answer_ms.shm-view", "ms"),
		lower("leaf.promote_drain_ms", "ms"),
		lower("leaf.promoted_blocks", "count"),
		// crash restart
		lower("leaf.start_ms.wal", "ms"),
		lower("wal.replay_us_per_row", "us/row"),
		lower("wal.replay_rows", "count"),
		lower("wal.snapshot_blocks", "count"),
		lower("leaf.start_ms.disk", "ms"),
		lower("disk.translate_us_per_row", "us/row"),
		// the measurement itself
		higher("trace.coverage", "ratio"),
		lower("trace.overhead_ratio", "ratio"),
		lower("gen.late_p95_ms", "ms"),
		lower("host.speed_factor", "ratio"),
	)
	return defs
}()

// measured is one metric of one run.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many timings the value summarizes (0 for a count or a
	// ratio of totals).
	Samples int `json:"samples,omitempty"`
	// Alias is the workload-specific name of a role metric.
	Alias string `json:"alias,omitempty"`
}

// metricOut is the shape the driver reads.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// seriesReport is the human-facing view of one timing series: the median
// and the highest percentile the sample count supports.
type seriesReport struct {
	Name    string  `json:"name"`
	Samples int     `json:"samples"`
	P50     float64 `json:"p50_ms"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail_ms"`
}

// measures is what a workload hands back.
type measures struct {
	e2e    map[string]measured
	layer  map[string]measured
	series []seriesReport
	notes  []string
}

func newMeasures() *measures {
	return &measures{e2e: make(map[string]measured), layer: make(map[string]measured)}
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("bench: metric " + name + " is not declared in metrics.go")
}

func (m *measures) setE2E(name string, v float64, samples int) {
	m.e2e[name] = measured{Value: v, Unit: unitOf(endToEnd, name), Samples: samples}
}

func (m *measures) setLayer(name string, v float64, samples int) {
	m.layer[name] = measured{Value: v, Unit: unitOf(perLayer, name), Samples: samples}
}

// report adds a timing series to the human report and returns its median.
func (m *measures) report(name string, s series) float64 {
	p := highestPercentile(len(s))
	m.series = append(m.series, seriesReport{Name: name, Samples: len(s), P50: median(s), TailPct: p, Tail: percentile(s, p)})
	return median(s)
}

func (m *measures) note(format string, args ...any) {
	m.notes = append(m.notes, fmt.Sprintf(format, args...))
}

// complete closes a workload's measures. Every end-to-end metric must have
// been set: the driver wants each of them from each run and none may be 0.
// Timings are divided by the host's speed factor while they were taken and
// rates multiplied by it (speed.go), so that they read as on this host at its
// reference speed; counts of bytes are left alone. A per-layer metric the
// workload does not exercise reports 0; per-layer timings stay as measured.
func (m *measures) complete(workload string, setupSpeed, speed float64) error {
	for _, d := range endToEnd {
		v, ok := m.e2e[d.Name]
		if !ok || !(v.Value > 0) {
			return fmt.Errorf("%s did not measure %s", workload, d.Name)
		}
		switch {
		case d.Name == "setup_s":
			v.Value /= setupSpeed
		case d.Unit == "ms":
			v.Value /= speed
		case d.Unit == "1/s":
			v.Value *= speed
		}
		v.Alias = alias[workload][d.Name]
		m.e2e[d.Name] = v
	}
	for _, d := range perLayer {
		if _, ok := m.layer[d.Name]; !ok {
			m.layer[d.Name] = measured{Unit: d.Unit}
		}
	}
	return nil
}
