package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"scuba"
)

func TestHighestPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	q1, q3 = quartiles([]float64{1, 2, 3, 4})
	if q1 != 1.25 || q3 != 3.75 {
		t.Errorf("quartiles(1..4) = %v, %v, want 1.25, 3.75", q1, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// A 100 ns window with children 10-30 and 20-50 (overlapping: 40 ns
	// covered once), 60-70, and one running past the parent's end (90-120,
	// 10 ns of it inside). A grandchild must not count toward the window.
	spans := []spanRec{
		{ID: 1, Trace: 1, Name: "window", Start: 0, End: 100, Window: true},
		{ID: 2, Parent: 1, Trace: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Trace: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Trace: 1, Name: "a", Start: 60, End: 70},
		{ID: 5, Parent: 1, Trace: 1, Name: "c", Start: 90, End: 120},
		{ID: 6, Parent: 3, Trace: 1, Name: "d", Start: 25, End: 45},
	}
	cover := childCover(spans)
	if cover[1] != 60 {
		t.Errorf("window cover = %d, want 60", cover[1])
	}
	if cover[3] != 20 {
		t.Errorf("span b cover = %d, want 20", cover[3])
	}
	layers, coverage := summarize(spans)
	if math.Abs(coverage-0.6) > 1e-12 {
		t.Errorf("coverage = %v, want 0.6", coverage)
	}
	if got := layers["window"].SelfMs * 1e6; math.Abs(got-40) > 1e-6 {
		t.Errorf("window self time = %v ns, want 40", got)
	}
	if got := layers["b"].SelfMs * 1e6; math.Abs(got-10) > 1e-6 {
		t.Errorf("b self time = %v ns, want 10", got)
	}
	if a := layers["a"]; a.Count != 2 || math.Abs(a.TotalMs*1e6-30) > 1e-6 {
		t.Errorf("a = %+v, want 2 spans, 30 ns", a)
	}
}

// canonical renders rows with their columns in sorted order. (The gob
// payload of a row is not compared: gob walks the column map in Go's random
// map order, so equal rows need not encode to equal bytes.)
func canonical(rows []scuba.Row) string {
	var out string
	for _, r := range rows {
		names := make([]string, 0, len(r.Cols))
		for n := range r.Cols {
			names = append(names, n)
		}
		sort.Strings(names)
		out += fmt.Sprint(r.Time)
		for _, n := range names {
			out += fmt.Sprintf("|%s=%v", n, r.Cols[n])
		}
		out += "\n"
	}
	return out
}

func TestSeedDeterminism(t *testing.T) {
	inputs := func(seed int64) (string, string) {
		g := newDataGen(seed)
		rows := canonical(g.stamped(200)) + canonical(g.batch(tableErrors, 50)) + canonical(g.batch(tableAds, 50))
		mix := newQueryMix(seed, epoch, epoch+100_000)
		var queries string
		for i := 0; i < 3*mixBlock; i++ {
			class, q := mix.next()
			queries += fmt.Sprintf("%s %d %d %v\n", class, q.From, q.To, q.Filters)
		}
		return rows, queries
	}
	rows1, q1 := inputs(7)
	rows2, q2 := inputs(7)
	if rows1 != rows2 || q1 != q2 {
		t.Error("the same seed gave different rows or queries")
	}
	rows3, q3 := inputs(8)
	if rows1 == rows3 || q1 == q3 {
		t.Error("a different seed gave the same rows or queries")
	}
	// Every block of the mix holds the exact class shares.
	mix := newQueryMix(3, epoch, epoch+100_000)
	count := map[string]int{}
	for i := 0; i < mixBlock; i++ {
		class, _ := mix.next()
		count[class]++
	}
	if count[classWindow] != 12 || count[classFilter] != 5 || count[classScan] != 3 {
		t.Errorf("one block of the mix = %v, want 12/5/3", count)
	}
}

func TestOpenLoopLateness(t *testing.T) {
	// A fake clock: sleeping advances it, and so does each send (30 ms of
	// work against a 10 ms schedule for the first three calls, none after).
	clock := time.Unix(1000, 0)
	start := clock
	now := func() time.Time { return clock }
	sleep := func(d time.Duration) bool {
		if d > 0 {
			clock = clock.Add(d)
		}
		return false
	}
	var dues []time.Duration
	late := openLoop(now, sleep, start, 10*time.Millisecond, 6, func(i int, due time.Time) {
		dues = append(dues, due.Sub(start))
		if i < 3 {
			clock = clock.Add(30 * time.Millisecond)
		}
	})
	// Calls are due every 10 ms whatever happens; call i starts when the
	// stall lets it: 0, 30, 60, 90 ms, then back on schedule.
	wantLate := []float64{0, 20, 40, 60, 50, 40}
	if len(late) != len(wantLate) {
		t.Fatalf("%d lateness samples, want %d", len(late), len(wantLate))
	}
	for i := range wantLate {
		if dues[i] != time.Duration(i)*10*time.Millisecond {
			t.Errorf("call %d due at %v", i, dues[i])
		}
		if math.Abs(late[i]-wantLate[i]) > 1e-9 {
			t.Errorf("call %d started %v ms late, want %v", i, late[i], wantLate[i])
		}
	}
	// A stop ends an unbounded loop.
	calls := 0
	openLoop(now, func(time.Duration) bool { return calls >= 4 }, clock, time.Millisecond, -1, func(int, time.Time) { calls++ })
	if calls != 4 {
		t.Errorf("unbounded loop made %d calls before the stop, want 4", calls)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "x_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "x_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, []float64{100}, []float64{105}, "unchanged"},
		{lower, []float64{100}, []float64{120}, "regressed"},
		{lower, []float64{100}, []float64{80}, "improved"},
		{higher, []float64{100}, []float64{80}, "regressed"},
		{higher, []float64{100}, []float64{120}, "improved"},
		{lower, []float64{70, 90, 110, 130}, []float64{50, 50, 50, 50}, "unresolved"},
		{lower, []float64{100}, []float64{0}, "unresolved"},
		{lower, []float64{0}, []float64{100}, "unresolved"},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}

func TestSpeedScaling(t *testing.T) {
	// A host running at half speed (kernel twice as slow) while measuring and
	// a quarter slower in set-up: timings shrink, rates grow, bytes stay.
	m := newMeasures()
	for _, d := range endToEnd {
		m.setE2E(d.Name, 100, 1)
	}
	if err := m.complete("dash_read", 1.25, 2); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{"primary_ms": 50, "query_p95_ms": 50, "throughput_per_s": 200,
		"disk_bytes_per_row": 100, "mem_bytes_per_row": 100, "setup_s": 80} {
		if got := m.e2e[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if m.e2e["primary_ms"].Alias != "scan_p50_ms" {
		t.Errorf("alias = %q", m.e2e["primary_ms"].Alias)
	}
	// A workload that leaves an end-to-end metric unset, or at 0, is an error.
	m = newMeasures()
	m.setE2E("primary_ms", 1, 1)
	if err := m.complete("dash_read", 1, 1); err == nil {
		t.Error("complete accepted a run without every end-to-end metric")
	}
	// The kernel does the same work on every call and the factor is the
	// median sample over the nominal time.
	k := newSpeedKernel()
	k.run()
	first := append([]int64(nil), k.acc[:64]...)
	k.run()
	for i, v := range first {
		if k.acc[i] != 2*v {
			t.Fatalf("kernel call 2 left acc[%d] = %d, want %d", i, k.acc[i], 2*v)
		}
	}
	s := &speedometer{stop: make(chan struct{}), done: make(chan struct{})}
	close(s.done)
	s.samples[1] = series{ms(speedNominal), 3 * ms(speedNominal), 2 * ms(speedNominal)}
	if setup, measure := s.finish(); setup != 1 || measure != 2 {
		t.Errorf("factors = %v, %v, want 1 (no samples), 2", setup, measure)
	}
}

func TestSetupClock(t *testing.T) {
	// Five rounds of 10 ms, one of them stalled to 500 ms, plus untimed work:
	// the stall does not count, the rest does.
	c := setupClock{start: time.Now().Add(-time.Second), rounds: series{10, 10, 500, 10, 10}}
	if got := c.seconds(); math.Abs(got-0.51) > 0.01 {
		t.Errorf("seconds = %v, want 0.51 (1 s less the 490 ms stall)", got)
	}
	sum := 0
	for i := 0; i < setupRounds; i++ {
		sum += share(1_000_003, i, setupRounds)
	}
	if sum != 1_000_003 {
		t.Errorf("shares sum to %d", sum)
	}
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, code default %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, code has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d = %q (why %d chars), code has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics listed, code has %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d] = %+v, code has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
}

// TestSmoke runs all four workloads at 1/50 scale, untraced and traced, and
// validates what a run reports: every declared metric, no failed operation,
// end-to-end values that are never 0, and the driver line's shape.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four workloads")
	}
	dir := t.TempDir()
	opt := options{root: dir, outDir: filepath.Join(dir, "out"), workDir: filepath.Join(dir, "work")}
	for _, d := range []string{opt.outDir, opt.workDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	opt.shmBase = shmBase(opt.workDir)
	sz := full().scaled(50)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w.name, 5, 1, traced, sz, opt)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", w.name, traced, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, want %q", w.name, d.Name, v.Unit, d.Unit)
				case !traced && !(v.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, v.Value)
				}
			}
			if traced {
				if c := res.Metrics["trace.coverage"].Value; c < 0.9 {
					t.Errorf("%s: trace coverage %v < 0.9", w.name, c)
				}
				if _, err := os.Stat(filepath.Join(opt.outDir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			}
			var line struct {
				Correct   *bool                `json:"correct"`
				Attempted *int64               `json:"attempted"`
				Failed    *int64               `json:"failed"`
				Metrics   map[string]metricOut `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(driverLine(res)), &line); err != nil {
				t.Fatalf("%s: driver line: %v", w.name, err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: driver line %s", w.name, traced, driverLine(res))
			}
		}
	}
	// Nothing may be left behind once the runs are over.
	if ents, _ := os.ReadDir(opt.workDir); len(ents) != 0 {
		t.Errorf("scratch left behind: %v", ents)
	}
}
