package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"scuba"
	"scuba/internal/obs"
)

// runTrace fetches one trace — a query's from __system.traces through the
// aggregator c, or with -restart a scubad's restart ledger — and renders it as
// a waterfall: every span a bar at its offset into the trace, a root's leaves
// and a phase's tables indented under it, annotated with where the data came
// from, what moved, a leaf's dominant execution phase and work counters, and
// how it failed; the slowest leaf or table called out at the bottom — "why
// was this query slow" and "where did the restart go" in one screen, drawn by
// one function because both are lists of one span record.
func runTrace(c *scuba.Client, args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	httpAddr := fs.String("http", "127.0.0.1:8081", "with -restart: the scubad's observability (-http) address")
	restart := fs.Bool("restart", false, "draw the restart trace from a scubad's /debug/recovery instead of a query trace")
	id := fs.Uint64("id", 0, "show the trace with this ID (0 = the most recent)")
	slow := fs.Bool("slow", false, "only queries the aggregator marked slow")
	list := fs.Bool("list", false, "one line per query instead of a waterfall")
	fs.Parse(args) //nolint:errcheck

	if *restart {
		body, err := httpGet(*httpAddr, "/debug/recovery")
		if err != nil {
			log.Fatal(err)
		}
		var dump scuba.RecoveryDump
		if err := json.Unmarshal([]byte(body), &dump); err != nil {
			log.Fatalf("bad /debug/recovery JSON from %s: %v", *httpAddr, err)
		}
		if len(dump.Restart) == 0 {
			fmt.Println("no restart spans (has this daemon started a leaf?)")
			return
		}
		printWaterfall(dump.Restart)
		return
	}
	// Without -id, the roots, newest first: a query span with no parent ran
	// on the aggregator it was sent to.
	filters := []scuba.Filter{{Column: "kind", Str: obs.KindQuery}, {Column: "parent"}}
	if *slow {
		filters = append(filters, scuba.Filter{Column: "slow", Int: 1})
	}
	if *id != 0 {
		filters = []scuba.Filter{{Column: "trace_id", Int: int64(*id)}}
	}
	traces, err := readTraces(c, filters...)
	if err == nil && !*list && *id == 0 && len(traces) > 0 {
		traces, err = readTraces(c, scuba.Filter{Column: "trace_id", Int: int64(traces[0][0].TraceID)})
	}
	switch {
	case err != nil:
		log.Fatal(err)
	case len(traces) == 0:
		fmt.Printf("no such query spans in %s (does scuba-aggd run with -telemetry-interval?)\n", scuba.SystemTracesTable)
	case !*list:
		printWaterfall(traces[0])
	default:
		for _, tr := range traces {
			root, flag := tr.Root(), " "
			if root.Slow {
				flag = "S"
			}
			fmt.Printf("%s %20d  %s  %9v  %s\n", flag, root.TraceID, root.Start.Format("15:04:05.000"),
				root.Duration.Round(time.Microsecond), root.Query)
		}
	}
}

// readTraces reads the spans of __system.traces that pass the filters as traces.
func readTraces(c *scuba.Client, filters ...scuba.Filter) ([]scuba.Trace, error) {
	q := &scuba.Query{Table: scuba.SystemTracesTable, From: 0, To: 1 << 40, Filters: filters, GroupBy: obs.SpanKeys}
	for _, col := range obs.SpanValues {
		q.Aggregations = append(q.Aggregations, scuba.Aggregation{Op: scuba.AggMax, Column: col})
	}
	res, err := c.Query(q)
	if err != nil {
		return nil, fmt.Errorf("querying %s: %w", scuba.SystemTracesTable, err)
	}
	var spans []scuba.Span
	for _, row := range res.Rows(q) {
		spans = append(spans, obs.SpanFromRow(row.Key, row.Values))
	}
	return obs.Traces(spans), nil
}

// printWaterfall draws a trace. A restart's two halves ran in different
// processes (the exec between them is on nobody's clock), so each half is a
// waterfall of its own; a query has one.
func printWaterfall(trace scuba.Trace) {
	head := fmt.Sprintf("trace %d", trace[len(trace)-1].TraceID)
	if root := trace.Root(); root.Kind != "" {
		if root.Slow {
			head += "  (slow)"
		}
		head += fmt.Sprintf("\n  query:    %s\n  start:    %s   duration: %v   leaves: %d/%d answered", root.Query,
			root.Start.Format("15:04:05.000"), root.Duration.Round(time.Microsecond),
			trace.Leaves().Answered(), len(trace.Leaves()))
	}
	fmt.Println(head)
	ids := make(map[uint64]bool)
	for _, sp := range trace {
		ids[sp.SpanID] = sp.SpanID != 0
	}
	const barWidth = 32
	for _, half := range []string{"shutdown", "start", ""} {
		spans := trace.Half(half)
		if len(spans) == 0 {
			continue
		}
		if half != "" {
			fmt.Printf("  %s half: %v wall, %d spans, %d tables\n", half,
				spans.TopLevel().Elapsed().Round(time.Microsecond), len(spans), len(spans.Tables()))
		}
		total, base := spans.Elapsed().Nanoseconds(), spans[0].Start
		for _, sp := range spans {
			label := sp.Kind
			switch {
			case sp.Leaf != "":
				label = sp.Leaf
			case sp.Table != "" && sp.Phase != "":
				label = fmt.Sprintf("%s %s w%d", strings.TrimPrefix(sp.Phase, "restart.table."), sp.Table, sp.Worker)
			case sp.Phase != "":
				label = sp.Phase
			}
			if ids[sp.Parent] || sp.Phase != "" && sp.Table != "" {
				label = "  " + label // somebody's share: a root's leaf, a phase's table
			}
			line := fmt.Sprintf("  %-44s [%s] %10v", label,
				renderBar(sp.Start.Sub(base).Nanoseconds(), sp.Duration.Nanoseconds(), total, barWidth),
				sp.Duration.Round(time.Microsecond))
			var notes []string
			if sp.Exec != nil {
				notes = append(notes, execSummary(sp.Exec))
			} else if sp.Recovery != "" {
				notes = append(notes, sp.Recovery)
			}
			if sp.Bytes > 0 {
				notes = append(notes, fmt.Sprintf("%d blocks %.1f MB", sp.Blocks, float64(sp.Bytes)/(1<<20)))
			} else if sp.Blocks > 0 {
				notes = append(notes, fmt.Sprintf("%d blocks", sp.Blocks))
			}
			if sp.Open {
				notes = append(notes, "NEVER ENDED (the process died here)")
			}
			if sp.Err != "" {
				notes = append(notes, "FAILED: "+sp.Err)
			}
			if len(notes) > 0 {
				line += "  " + strings.Join(notes, " · ")
			}
			fmt.Println(line)
		}
		if slow := spans.Tables().Slowest(); slow.Table != "" {
			fmt.Printf("  slowest table: %s (%v on worker %d)\n", slow.Table,
				slow.Duration.Round(time.Microsecond), slow.Worker)
		}
		if slow := spans.Leaves().Slowest(); slow.Leaf != "" {
			callout := fmt.Sprintf("  slowest leaf: %s (%v)", slow.Leaf, slow.Duration.Round(time.Microsecond))
			if slow.Exec != nil {
				if phase, v := slow.Exec.DominantPhase(); phase != "" {
					callout += fmt.Sprintf(", dominant phase %s (%v)", phase, time.Duration(v).Round(time.Microsecond))
				}
			}
			fmt.Println(callout)
		}
	}
}

// execSummary condenses one leaf's ExecStats to a single annotation:
// dominant phase with its share of the leaf's phase time, recovery source,
// and the work counters.
func execSummary(e *scuba.ExecStats) string {
	var parts []string
	if phase, v := e.DominantPhase(); phase != "" {
		total := e.DecodeNanos + e.PruneNanos + e.ScanNanos + e.MergeNanos
		parts = append(parts, fmt.Sprintf("%s %d%%", phase, 100*v/total))
	}
	if e.Recovery != "" {
		parts = append(parts, e.Recovery)
	}
	parts = append(parts, fmt.Sprintf("%d rows", e.RowsScanned))
	if e.BlocksPruned > 0 {
		parts = append(parts, fmt.Sprintf("%d/%d blocks pruned",
			e.BlocksPruned, e.BlocksPruned+e.BlocksScanned))
	}
	if e.CacheHits+e.CacheMisses > 0 {
		parts = append(parts, fmt.Sprintf("cache %d/%d", e.CacheHits, e.CacheHits+e.CacheMisses))
	}
	return strings.Join(parts, " · ")
}

// renderBar draws a span of dur starting at off on a line of width cells that
// stands for total.
func renderBar(off, dur, total int64, width int) string {
	if total <= 0 {
		total = 1
	}
	lead := min(max(int(off*int64(width)/total), 0), width-1)
	n := max(min(int(dur*int64(width)/total), width-lead), 1)
	return strings.Repeat(".", lead) + strings.Repeat("#", n) + strings.Repeat(".", width-lead-n)
}
