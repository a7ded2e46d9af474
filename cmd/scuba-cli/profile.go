package main

// scuba-cli profile renders the continuous profiler's captures from the
// __system.profiles rows the daemons ingest about themselves, queried back
// through a live aggregator — the CPU/heap sibling of scuba-cli health.
// -top shows the hottest functions of the newest capture; -diff joins the
// two newest captures per-function (before/after a restart, or around an
// anomaly) and sorts by the flat-time swing.

import (
	"flag"
	"fmt"
	"log"
	"math"
	"sort"
	"strconv"
	"time"

	"scuba"
)

func runProfile(args []string) {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	aggAddr := fs.String("agg", "127.0.0.1:9001", "aggregator address")
	window := fs.Duration("window", 15*time.Minute, "how far back to look for captures")
	top := fs.Int("top", 15, "how many functions to show")
	leafSrc := fs.String("leaf", "", "only captures from this source daemon (a leaf addr, the aggd addr, or tailer:<category>)")
	trigger := fs.String("trigger", "", "only captures with this trigger (interval, slow_query, restart, gc_pause)")
	diff := fs.Bool("diff", false, "diff the two newest captures (per-function flat-time swing) instead of one top table")
	fs.Parse(args) //nolint:errcheck

	c := scuba.DialLeaf(*aggAddr)
	defer c.Close()

	caps, err := listCaptures(c, *window, *leafSrc, *trigger)
	if err != nil {
		log.Fatal(err)
	}
	if len(caps) == 0 {
		fmt.Printf("no %s captures in the last %v — are the daemons running with -profile-interval?\n",
			scuba.SystemProfilesTable, *window)
		return
	}
	if *diff {
		// Diff wants comparable captures: same daemon, two points in time.
		newest := caps[0]
		var prev *capture
		for i := 1; i < len(caps); i++ {
			if caps[i].Source == newest.Source {
				prev = &caps[i]
				break
			}
		}
		if prev == nil {
			log.Fatalf("profile: only one capture from %s in the window, nothing to diff", newest.Source)
		}
		if err := renderDiff(c, *prev, newest, *top); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := renderTop(c, caps[0], *top); err != nil {
		log.Fatal(err)
	}
}

// capture identifies one profiler capture (all rows share the capture ID).
type capture struct {
	ID      string // end-of-window unix micros, as a string key
	TUS     int64
	Source  string
	Trigger string
	Detail  string
	TraceID uint64
}

// listCaptures returns the window's captures, newest first.
func listCaptures(c *scuba.Client, window time.Duration, source, trigger string) ([]capture, error) {
	now := time.Now().Unix()
	q := &scuba.Query{
		Table: scuba.SystemProfilesTable,
		From:  now - int64(window/time.Second),
		To:    now + 1,
		// trace_id is a key, as in the trace reader: a float64 aggregate
		// cannot hold a 63-bit ID, and `trace -id` needs every bit of it.
		GroupBy:      []string{"capture", "source", "trigger", "detail", "trace_id"},
		Aggregations: []scuba.Aggregation{{Op: scuba.AggMax, Column: "t_us"}},
		Limit:        10000,
	}
	if source != "" {
		q.Filters = append(q.Filters, scuba.Filter{Column: "source", Op: scuba.OpEq, Str: source})
	}
	if trigger != "" {
		q.Filters = append(q.Filters, scuba.Filter{Column: "trigger", Op: scuba.OpEq, Str: trigger})
	}
	res, err := c.Query(q)
	if err != nil {
		return nil, fmt.Errorf("querying %s: %w", scuba.SystemProfilesTable, err)
	}
	var caps []capture
	for _, row := range res.Rows(q) {
		// An ID is an int64 cell: a 64-bit trace ID reads back negative.
		id, _ := strconv.ParseInt(row.Key[4], 10, 64)
		caps = append(caps, capture{
			ID: row.Key[0], Source: row.Key[1], Trigger: row.Key[2], Detail: row.Key[3],
			TUS: int64(row.Values[0]), TraceID: uint64(id),
		})
	}
	sort.Slice(caps, func(i, j int) bool { return caps[i].TUS > caps[j].TUS })
	return caps, nil
}

// funcRow is one function's numbers within a single capture.
type funcRow struct {
	Flat, Cum, Alloc, Inuse float64
}

// captureFunctions fetches a capture's per-function rows keyed by function
// name (the "(total)" row included).
func captureFunctions(c *scuba.Client, cap capture) (map[string]funcRow, error) {
	t := cap.TUS / 1e6
	q := &scuba.Query{
		Table:   scuba.SystemProfilesTable,
		From:    t - 1,
		To:      t + 2,
		GroupBy: []string{"function"},
		Filters: []scuba.Filter{{Column: "capture", Op: scuba.OpEq, Str: cap.ID}},
		Aggregations: []scuba.Aggregation{
			{Op: scuba.AggMax, Column: "flat_ns"},
			{Op: scuba.AggMax, Column: "cum_ns"},
			{Op: scuba.AggMax, Column: "alloc_bytes"},
			{Op: scuba.AggMax, Column: "inuse_bytes"},
		},
		Limit: 10000,
	}
	res, err := c.Query(q)
	if err != nil {
		return nil, fmt.Errorf("querying capture %s: %w", cap.ID, err)
	}
	out := map[string]funcRow{}
	for _, row := range res.Rows(q) {
		out[row.Key[0]] = funcRow{
			Flat: row.Values[0], Cum: row.Values[1],
			Alloc: row.Values[2], Inuse: row.Values[3],
		}
	}
	return out, nil
}

func describeCapture(cap capture) string {
	when := time.UnixMicro(cap.TUS).Format("15:04:05.000")
	s := fmt.Sprintf("%s  %s  trigger=%s", when, cap.Source, cap.Trigger)
	if cap.TraceID != 0 {
		s += fmt.Sprintf("  trace=%d", cap.TraceID)
	}
	if cap.Detail != "" {
		s += "  " + cap.Detail
	}
	return s
}

func renderTop(c *scuba.Client, cap capture, top int) error {
	funcs, err := captureFunctions(c, cap)
	if err != nil {
		return err
	}
	total := funcs[scuba.ProfileTotalFunction]
	delete(funcs, scuba.ProfileTotalFunction)

	fmt.Printf("capture %s\n", describeCapture(cap))
	fmt.Printf("window total: %s CPU, %s allocated\n\n", ms(total.Flat), mbf(total.Alloc))
	names := sortedByFlat(funcs)
	fmt.Printf("%9s %6s %9s %9s %9s  %s\n", "flat", "flat%", "cum", "alloc", "inuse", "function")
	for i, fn := range names {
		if i >= top {
			break
		}
		r := funcs[fn]
		fmt.Printf("%9s %6s %9s %9s %9s  %s\n",
			ms(r.Flat), pct(r.Flat, total.Flat), ms(r.Cum), mbf(r.Alloc), mbf(r.Inuse), fn)
	}
	if len(names) == 0 {
		fmt.Println("(idle window: no CPU samples above threshold)")
	}
	return nil
}

func renderDiff(c *scuba.Client, before, after capture, top int) error {
	bf, err := captureFunctions(c, before)
	if err != nil {
		return err
	}
	af, err := captureFunctions(c, after)
	if err != nil {
		return err
	}
	bTotal, aTotal := bf[scuba.ProfileTotalFunction], af[scuba.ProfileTotalFunction]
	delete(bf, scuba.ProfileTotalFunction)
	delete(af, scuba.ProfileTotalFunction)

	fmt.Printf("before  %s\n", describeCapture(before))
	fmt.Printf("after   %s\n", describeCapture(after))
	fmt.Printf("window total: %s -> %s CPU (%s)\n\n",
		ms(bTotal.Flat), ms(aTotal.Flat), signedMS(aTotal.Flat-bTotal.Flat))

	seen := map[string]bool{}
	type delta struct {
		fn            string
		before, after float64
	}
	var deltas []delta
	for fn, r := range af {
		deltas = append(deltas, delta{fn: fn, before: bf[fn].Flat, after: r.Flat})
		seen[fn] = true
	}
	for fn, r := range bf {
		if !seen[fn] {
			deltas = append(deltas, delta{fn: fn, before: r.Flat, after: 0})
		}
	}
	sort.Slice(deltas, func(i, j int) bool {
		return math.Abs(deltas[i].after-deltas[i].before) > math.Abs(deltas[j].after-deltas[j].before)
	})
	fmt.Printf("%10s %9s %9s  %s\n", "Δflat", "before", "after", "function")
	for i, d := range deltas {
		if i >= top {
			break
		}
		fmt.Printf("%10s %9s %9s  %s\n", signedMS(d.after-d.before), ms(d.before), ms(d.after), d.fn)
	}
	if len(deltas) == 0 {
		fmt.Println("(both windows idle)")
	}
	return nil
}

func sortedByFlat(funcs map[string]funcRow) []string {
	names := make([]string, 0, len(funcs))
	for fn := range funcs {
		names = append(names, fn)
	}
	sort.Slice(names, func(i, j int) bool {
		if funcs[names[i]].Flat != funcs[names[j]].Flat {
			return funcs[names[i]].Flat > funcs[names[j]].Flat
		}
		return names[i] < names[j]
	})
	return names
}

// ms renders nanoseconds as milliseconds.
func ms(ns float64) string {
	return strconv.FormatFloat(ns/1e6, 'f', 1, 64) + "ms"
}

// signedMS is ms with an explicit sign, for diff columns.
func signedMS(ns float64) string {
	if ns >= 0 {
		return "+" + ms(ns)
	}
	return ms(ns)
}

// mbf renders bytes as megabytes (profile rows carry sampled bytes).
func mbf(b float64) string {
	return strconv.FormatFloat(b/(1<<20), 'f', 1, 64) + "M"
}
