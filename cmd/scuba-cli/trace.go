package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"scuba"
)

// runTrace fetches traces from a scuba-aggd -http listener and renders one
// as a per-leaf waterfall: each span's round trip as a bar against the
// query's end-to-end duration, annotated with the leaf's dominant execution
// phase, recovery source, and work counters, with the slowest leaf called
// out at the bottom — the "why was this query slow" answer in one screen.
// With -restart it draws a scubad's restart ledger the same way: "where did
// the restart go".
func runTrace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	httpAddr := fs.String("http", "127.0.0.1:9091", "scuba-aggd observability (-http) address; with -restart, a scubad's")
	restart := fs.Bool("restart", false, "draw the restart trace from a scubad's /debug/recovery instead of a query trace")
	id := fs.Uint64("id", 0, "show the trace with this ID (0 = the most recent)")
	slow := fs.Bool("slow", false, "read the slow-query ring instead of recent traces")
	list := fs.Bool("list", false, "one line per retained trace instead of a waterfall")
	fs.Parse(args) //nolint:errcheck

	base := *httpAddr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if *restart {
		body, err := httpGet(base + "/debug/recovery")
		if err != nil {
			log.Fatal(err)
		}
		var dump scuba.RecoveryDump
		if err := json.Unmarshal([]byte(body), &dump); err != nil {
			log.Fatalf("bad /debug/recovery JSON from %s: %v", base, err)
		}
		printRestart(dump.Restart)
		return
	}
	url := base + "/debug/traces"
	if *slow {
		url = base + "/debug/slow"
	}
	if *id != 0 {
		url = fmt.Sprintf("%s/debug/traces?id=%d", base, *id)
	}
	body, err := httpGet(url)
	if err != nil {
		log.Fatal(err)
	}
	var dump scuba.TraceDump
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		log.Fatalf("bad trace JSON from %s: %v", url, err)
	}
	if len(dump.Traces) == 0 {
		fmt.Println("no traces retained (has a query run through this aggregator?)")
		return
	}
	if *list {
		for _, tr := range dump.Traces {
			flag := " "
			if tr.Slow {
				flag = "S"
			}
			fmt.Printf("%s %20d  %s  %9v  %d/%d leaves  %s\n",
				flag, tr.TraceID, tr.Start.Format("15:04:05.000"),
				time.Duration(tr.DurationNanos).Round(time.Microsecond),
				tr.LeavesAnswered, tr.LeavesTotal, tr.Query)
		}
		return
	}
	printWaterfall(dump.Traces[0])
}

func printWaterfall(tr scuba.Trace) {
	head := fmt.Sprintf("trace %d", tr.TraceID)
	if tr.Slow {
		head += "  (slow)"
	}
	fmt.Println(head)
	fmt.Printf("  query:    %s\n", tr.Query)
	fmt.Printf("  start:    %s   duration: %v   leaves: %d/%d answered\n",
		tr.Start.Format("15:04:05.000"),
		time.Duration(tr.DurationNanos).Round(time.Microsecond),
		tr.LeavesAnswered, tr.LeavesTotal)

	width := 0
	for _, sp := range tr.Spans {
		if len(sp.Leaf) > width {
			width = len(sp.Leaf)
		}
	}
	const barWidth = 32
	for _, sp := range tr.Spans {
		bar := renderBar(0, sp.RTTNanos, tr.DurationNanos, barWidth)
		line := fmt.Sprintf("  %-*s [%s] %9v",
			width, sp.Leaf, bar, time.Duration(sp.RTTNanos).Round(time.Microsecond))
		switch {
		case !sp.Answered:
			line += "  UNANSWERED"
			if sp.Err != "" {
				line += ": " + sp.Err
			}
		case sp.Exec != nil:
			line += "  " + execSummary(sp.Exec)
		}
		fmt.Println(line)
	}

	if slowest := tr.SlowestSpan(); slowest != nil {
		callout := fmt.Sprintf("  slowest leaf: %s (%v)",
			slowest.Leaf, time.Duration(slowest.RTTNanos).Round(time.Microsecond))
		if slowest.Exec != nil {
			if phase, v := slowest.Exec.DominantPhase(); phase != "" {
				callout += fmt.Sprintf(", dominant phase %s (%v)",
					phase, time.Duration(v).Round(time.Microsecond))
			}
		}
		fmt.Println(callout)
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

// printRestart renders a restart trace as one waterfall per half (the two
// run in different processes; the exec between them is on nobody's clock):
// whole-leaf phases flush left, each table's steps indented under the phase
// they ran in, every bar placed at the span's offset into its half.
func printRestart(trace scuba.RestartTrace) {
	if len(trace) == 0 {
		fmt.Println("no restart spans (has this daemon started a leaf?)")
		return
	}
	fmt.Printf("restart trace %d\n", trace[len(trace)-1].TraceID)
	const barWidth = 32
	for _, half := range []string{"shutdown", "start"} {
		spans := trace.Half(half)
		if len(spans) == 0 {
			continue
		}
		gap := spans.TopLevel()
		fmt.Printf("  %s half: %v wall, %d spans, %d tables\n", half,
			gap.Elapsed().Round(time.Microsecond), len(spans), len(spans.Tables()))
		total := spans.Elapsed().Nanoseconds()
		base := spans[0].Start
		for _, sp := range spans {
			label := sp.Phase
			if sp.Table != "" {
				label = fmt.Sprintf("  %s %s w%d", strings.TrimPrefix(sp.Phase, "restart.table."), sp.Table, sp.Worker)
			}
			line := fmt.Sprintf("  %-44s [%s] %10v", label,
				renderBar(sp.Start.Sub(base).Nanoseconds(), sp.Duration.Nanoseconds(), total, barWidth),
				sp.Duration.Round(time.Microsecond))
			var notes []string
			if sp.Source != "" {
				notes = append(notes, sp.Source)
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
		if slow := scuba.SlowestTable(spans.Tables()); slow.Table != "" {
			fmt.Printf("  slowest table: %s (%v on worker %d)\n", slow.Table,
				slow.Duration.Round(time.Microsecond), slow.Worker)
		}
	}
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
