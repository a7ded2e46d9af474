package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"scuba/internal/obs"
	"scuba/internal/query"
	"scuba/internal/rowblock"
	"scuba/internal/table"
)

// ---- E18: tracing overhead on the hot query path ----

// e18Cell is one (selectivity, tracing) measurement in BENCH_e18.json.
type e18Cell struct {
	Selectivity string  `json:"selectivity"`
	Traced      bool    `json:"traced"`
	P50Micros   float64 `json:"p50_us"`
	P95Micros   float64 `json:"p95_us"`
}

type e18Report struct {
	Rows               int       `json:"rows"`
	Blocks             int       `json:"blocks"`
	Trials             int       `json:"trials"`
	Cells              []e18Cell `json:"cells"`
	OverheadFullP50Pct float64   `json:"overhead_full_p50_pct"`
	OverheadHalfP50Pct float64   `json:"overhead_half_p50_pct"`
	PassTwoPct         bool      `json:"pass_2pct"`
}

// runE18 measures what always-on tracing costs the hot path: the same
// sealed-block scans as E17, run untraced and traced (phase timing,
// ExecStats assembly, span stamping, tracer ring insert). The acceptance
// note is that p50 overhead stays under ~2% on the full scan — tracing must
// be cheap enough to leave on for every query, which is the whole point of
// a slow-query log that is populated before anyone asks.
func runE18() error {
	const blocks = 32
	const trials = 60
	rowsPerBlock := *rowsFlag / blocks
	if rowsPerBlock < 100 {
		rowsPerBlock = 100
	}
	totalRows := rowsPerBlock * blocks

	tbl := table.New("events", table.Options{})
	seq := int64(0)
	services := []string{"web", "api", "ads", "search"}
	for b := 0; b < blocks; b++ {
		rows := make([]rowblock.Row, rowsPerBlock)
		for i := range rows {
			rows[i] = rowblock.Row{
				Time: 1700000000 + seq,
				Cols: map[string]rowblock.Value{
					"seq":        rowblock.Int64Value(seq),
					"service":    rowblock.StringValue(services[seq%4]),
					"latency_ms": rowblock.Float64Value(float64(seq%500) / 2),
				},
			}
			seq++
		}
		if err := tbl.AddRows(rows, 1); err != nil {
			return err
		}
		if err := tbl.SealActive(); err != nil {
			return err
		}
	}

	queries := []struct {
		selectivity string
		q           *query.Query
	}{
		{"full", &query.Query{Table: "events", From: 0, To: 1 << 40,
			GroupBy:      []string{"service"},
			Aggregations: []query.Aggregation{{Op: query.AggCount}, {Op: query.AggAvg, Column: "latency_ms"}}}},
		{"half", &query.Query{Table: "events", From: 0, To: 1 << 40,
			Filters:      []query.Filter{{Column: "seq", Op: query.OpGe, Int: int64(totalRows / 2)}},
			GroupBy:      []string{"service"},
			Aggregations: []query.Aggregation{{Op: query.AggCount}, {Op: query.AggAvg, Column: "latency_ms"}}}},
	}

	// The traced arm carries everything a production traced query does:
	// a live tracer ring to insert into, a span context, and the ExecStats
	// block built off the result.
	tracer := obs.NewTracer(obs.TracerOptions{})
	opts := query.ExecOptions{Workers: 1}
	rep := e18Report{Rows: totalRows, Blocks: blocks, Trials: trials}
	p50 := map[string]float64{} // "selectivity/traced" -> µs
	fmt.Printf("%12s %7s | %12s %12s\n", "selectivity", "traced", "p50", "p95")
	for _, qc := range queries {
		for _, traced := range []bool{false, true} {
			durs := make([]time.Duration, 0, trials)
			for t := 0; t < trials; t++ {
				start := time.Now()
				res, err := query.Execute(tbl, qc.q, opts)
				if err != nil {
					return err
				}
				if traced {
					tc := obs.TraceContext{TraceID: tracer.NewTraceID(), SpanID: obs.RandomID()}
					d := time.Since(start)
					exec := res.ExecStats(tc.SpanID, qc.q.Table, "none", d, 0)
					tracer.Record(obs.Trace{
						TraceID: tc.TraceID, Query: "bench", Start: start,
						DurationNanos: d.Nanoseconds(), LeavesTotal: 1, LeavesAnswered: 1,
						Spans: []obs.LeafSpan{{SpanID: tc.SpanID, Leaf: "bench", Answered: true,
							RTTNanos: d.Nanoseconds(), Exec: exec}},
					})
				}
				durs = append(durs, time.Since(start))
			}
			sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
			cell := e18Cell{
				Selectivity: qc.selectivity, Traced: traced,
				P50Micros: float64(durs[len(durs)/2].Microseconds()),
				P95Micros: float64(durs[len(durs)*95/100].Microseconds()),
			}
			rep.Cells = append(rep.Cells, cell)
			p50[fmt.Sprintf("%s/%v", qc.selectivity, traced)] = cell.P50Micros
			fmt.Printf("%12s %7v | %10.0fµs %10.0fµs\n",
				qc.selectivity, traced, cell.P50Micros, cell.P95Micros)
		}
	}

	overhead := func(sel string) float64 {
		base := p50[sel+"/false"]
		if base == 0 {
			return 0
		}
		return (p50[sel+"/true"] - base) / base * 100
	}
	rep.OverheadFullP50Pct = overhead("full")
	rep.OverheadHalfP50Pct = overhead("half")
	// Laptop-scale medians jitter; judge the bar on the full scan, where the
	// fixed per-query tracing cost is smallest relative to real work.
	rep.PassTwoPct = rep.OverheadFullP50Pct <= 2
	verdict := "PASS"
	if !rep.PassTwoPct {
		verdict = "FAIL"
	}
	fmt.Printf("\ntracing p50 overhead: full scan %+.1f%% [%s, bar is ~2%%], half scan %+.1f%%\n",
		rep.OverheadFullP50Pct, verdict, rep.OverheadHalfP50Pct)

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_e18.json", append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_e18.json")
	fmt.Println("paper: Scuba's aggregators log per-query stats; the restart story only works in")
	fmt.Println("production if explaining a slow query costs nothing on the fast ones")
	return nil
}
