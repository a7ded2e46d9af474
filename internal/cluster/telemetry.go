package cluster

// Telemetry persistence: rollover drills and availability probes used to
// print their timelines and throw them away. Here those reports become
// __system.rollover rows ingested through the ordinary leaf path, so the
// coverage dips and recovery paths of a restart drill are queryable through
// the same aggregator the drill was exercising — and, because __system
// tables are plain leaf tables, the history itself survives the next
// restart through shared memory.

import (
	"errors"
	"time"

	"scuba/internal/metrics"
	"scuba/internal/obs"
	"scuba/internal/rowblock"
)

// Rows converts a probe report into __system.rollover rows: one
// event="probe" row per observation (the coverage/latency timeline) plus a
// closing event="probe_summary" row. start anchors the timeline's absolute
// timestamps; source labels who ran the probe.
func (r *AvailabilityReport) Rows(source string, start time.Time) []rowblock.Row {
	rows := make([]rowblock.Row, 0, len(r.Points)+1)
	for _, pt := range r.Points {
		rows = append(rows, rowblock.Row{
			Time: start.Add(pt.Elapsed).Unix(),
			Cols: map[string]rowblock.Value{
				"source":         rowblock.StringValue(source),
				"event":          rowblock.StringValue("probe"),
				"elapsed_us":     rowblock.Int64Value(pt.Elapsed.Microseconds()),
				"shard_coverage": rowblock.Float64Value(pt.ShardCoverage),
				"leaf_coverage":  rowblock.Float64Value(pt.LeafCoverage),
				"latency_us":     rowblock.Int64Value(pt.Latency.Microseconds()),
			},
		})
	}
	end := start
	if n := len(r.Points); n > 0 {
		end = start.Add(r.Points[n-1].Elapsed)
	}
	rows = append(rows, rowblock.Row{
		Time: end.Unix(),
		Cols: map[string]rowblock.Value{
			"source":             rowblock.StringValue(source),
			"event":              rowblock.StringValue("probe_summary"),
			"queries":            rowblock.Int64Value(int64(r.Queries)),
			"errors":             rowblock.Int64Value(int64(r.Errors)),
			"wrong":              rowblock.Int64Value(int64(r.Wrong)),
			"min_shard_coverage": rowblock.Float64Value(r.MinShardCoverage),
			"min_leaf_coverage":  rowblock.Float64Value(r.MinLeafCoverage),
			"p50_us":             rowblock.Int64Value(r.P50.Microseconds()),
			"p99_us":             rowblock.Int64Value(r.P99.Microseconds()),
		},
	})
	return rows
}

// Rows converts a rollover report into __system.rollover rows: one
// event="restart" row per leaf restart plus a closing
// event="rollover_summary" row carrying one <path>_recoveries column per
// recovery path. start is when the rollover began.
func (r *RolloverReport) Rows(source string, start time.Time) []rowblock.Row {
	rows := make([]rowblock.Row, 0, len(r.Restarts)+1)
	elapsed := time.Duration(0)
	for _, rs := range r.Restarts {
		// Restarts are sorted by leaf, not wall clock; stamping each row
		// with the running sum keeps timestamps inside the drill window
		// without claiming per-restart ordering the report doesn't record.
		elapsed += rs.Duration
		rows = append(rows, rowblock.Row{
			Time: start.Add(elapsed).Unix(),
			Cols: map[string]rowblock.Value{
				"source":      rowblock.StringValue(source),
				"event":       rowblock.StringValue("restart"),
				"leaf":        rowblock.Int64Value(int64(rs.Leaf)),
				"addr":        rowblock.StringValue(rs.Name),
				"recovery":    rowblock.StringValue(string(rs.Recovery)),
				"killed":      obs.BoolValue(rs.Killed),
				"crashed":     obs.BoolValue(rs.Crashed),
				"error":       rowblock.StringValue(rs.Err),
				"duration_us": rowblock.Int64Value(rs.Duration.Microseconds()),
			},
		})
	}
	summary := map[string]rowblock.Value{
		"source":      rowblock.StringValue(source),
		"event":       rowblock.StringValue("rollover_summary"),
		"batches":     rowblock.Int64Value(int64(r.Batches)),
		"restarts":    rowblock.Int64Value(int64(len(r.Restarts))),
		"quarantined": rowblock.Int64Value(int64(len(r.Quarantined))),
		"aborted":     obs.BoolValue(r.Aborted),
		"duration_us": rowblock.Int64Value(r.Duration.Microseconds()),
	}
	for _, p := range recoveryPaths {
		summary[metrics.CanonicalName(string(p))+"_recoveries"] = rowblock.Int64Value(int64(r.Recoveries[p]))
	}
	return append(rows, rowblock.Row{Time: start.Add(r.Duration).Unix(), Cols: summary})
}

// Persist writes report rows (RolloverReport.Rows, AvailabilityReport.Rows)
// into __system.rollover via the first live leaf that takes them. The rows
// land in a plain leaf-local table, so every aggregator query for
// __system.rollover finds them regardless of shard routing.
func (pc *ProcCluster) Persist(rows []rowblock.Row) error {
	var lastErr error
	for _, l := range pc.leaves {
		if l.Quarantined() {
			continue
		}
		if err := l.Client().AddRows(obs.SystemRolloverTable, rows); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	if lastErr == nil {
		lastErr = errors.New("cluster: no live leaf to persist telemetry")
	}
	return lastErr
}
