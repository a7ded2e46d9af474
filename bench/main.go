// Command bench is the repository's end-to-end benchmark: four workloads
// (dashboard reads, ingest freshness, shared-memory restarts, crash restarts)
// over one in-process topology on loopback TCP, an untraced run for the
// end-to-end metrics and a traced run for the per-layer ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// workloads in the order a full set runs them.
var workloads = []struct {
	name string
	fn   func(*run) (*measures, error)
}{
	{"dash_read", dashRead},
	{"ingest_fresh", ingestFresh},
	{"restart_shm", restartShm},
	{"restart_crash", restartCrash},
}

// options are the locations a run works in.
type options struct {
	root    string // checkout root
	outDir  string // result and trace files
	workDir string // scratch for disk backup and WAL
	shmBase string // where each run makes its shared memory directory
}

// shmBase picks the home of the shared memory segments as a deployment
// would: /dev/shm when it is a tmpfs this process can write to, with room for
// the largest leaf's image several times over; the work directory otherwise.
// Leaf.Shutdown msyncs its segments, which on tmpfs costs nothing and on a
// disk filesystem is real writeback that no deployment pays.
func shmBase(workDir string) string {
	const dev = "/dev/shm"
	var st syscall.Statfs_t
	if fsName(dev) != "tmpfs" || syscall.Statfs(dev, &st) != nil || st.Bavail*uint64(st.Bsize) < shmMinFreeBytes {
		return workDir
	}
	probe, err := os.MkdirTemp(dev, "scuba-bench-")
	if err != nil {
		return workDir
	}
	os.Remove(probe) //nolint:errcheck // empty directory made a moment ago
	return dev
}

// scratch tracks the directories to remove when the process ends, normally
// or on a signal.
var scratch struct {
	mu   sync.Mutex
	dirs map[string]bool
}

func trackDir(dir string) {
	scratch.mu.Lock()
	defer scratch.mu.Unlock()
	if scratch.dirs == nil {
		scratch.dirs = make(map[string]bool)
	}
	scratch.dirs[dir] = true
}

func removeDir(dir string) {
	os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup
	scratch.mu.Lock()
	delete(scratch.dirs, dir)
	scratch.mu.Unlock()
}

func removeAllScratch() {
	scratch.mu.Lock()
	defer scratch.mu.Unlock()
	for dir := range scratch.dirs {
		os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup
	}
	scratch.dirs = nil
}

// result is one workload run as result.json and the human report hold it.
type result struct {
	Workload  string  `json:"workload"`
	Traced    bool    `json:"traced"`
	Seed      int64   `json:"seed"`
	Seconds   int     `json:"seconds"`
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	WallS     float64 `json:"wall_s"`
	// Speed and SetupSpeed are the host's speed factors while measuring and
	// during set-up (speed.go); the end-to-end timings and rates are already
	// scaled by them.
	Speed      float64             `json:"speed_factor"`
	SetupSpeed float64             `json:"setup_speed_factor"`
	Metrics    map[string]measured `json:"metrics"`
	Series     []seriesReport      `json:"series,omitempty"`
	Notes      []string            `json:"notes,omitempty"`
	Errors     []string            `json:"errors,omitempty"`
}

// runWorkload runs one workload once and reduces it to a result. traced
// selects the per-layer run.
func runWorkload(name string, seed int64, seconds int, traced bool, sz sizes, opt options) (*result, error) {
	var fn func(*run) (*measures, error)
	for _, w := range workloads {
		if w.name == name {
			fn = w.fn
		}
	}
	if fn == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	dir, err := os.MkdirTemp(opt.workDir, name+"-")
	if err != nil {
		return nil, err
	}
	trackDir(dir)
	defer removeDir(dir)
	r := &run{workload: name, seed: seed, seconds: seconds, sz: sz, dir: dir,
		gen: newDataGen(seed), oracle: newOracle(3)}
	if r.shmDir, err = os.MkdirTemp(opt.shmBase, "scuba-bench-"); err != nil {
		return nil, err
	}
	trackDir(r.shmDir)
	defer removeDir(r.shmDir)
	if traced {
		r.tr = newTracer()
	}
	// Start every workload from the same heap state, whatever ran before it
	// in this process.
	exitProcess()
	begin := time.Now()
	r.speed = startSpeedometer()
	r.setup = setupClock{start: begin}
	m, err := fn(r)
	setupSpeed, speed := r.speed.finish()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := m.complete(name, setupSpeed, speed); err != nil {
		return nil, err
	}
	if r.attempted.Load() == 0 {
		return nil, fmt.Errorf("%s attempted no operation", name)
	}
	if n := r.undercount.Load(); n > 0 {
		m.note("%s: %d full answers missed rows of a block that sealed mid-query (known race between the executor's sealed-block and unsealed-tail snapshots; counted, not failed)", name, n)
	}
	res := &result{Workload: name, Traced: traced, Seed: seed, Seconds: seconds,
		Attempted: r.attempted.Load(), WallS: time.Since(begin).Seconds(), Speed: speed, SetupSpeed: setupSpeed,
		Series: m.series, Notes: m.notes}
	if traced {
		spans := r.tr.snapshot()
		layers := traceMetrics(r, m, spans, opt)
		m.setLayer("host.speed_factor", speed, 0)
		res.Metrics = m.layer
		out := make(map[string]metricOut, len(m.layer))
		for name, v := range m.layer {
			out[name] = metricOut{v.Value, v.Unit}
		}
		err = writeJSON(filepath.Join(opt.outDir, "trace-"+name+".json"), traceFile{
			Workload: name, Seed: seed, Seconds: seconds,
			Coverage: m.layer["trace.coverage"].Value, Layers: layers, Metrics: out, Spans: spans,
		})
	} else {
		res.Metrics = m.e2e
		// Kept for the overhead ratio of a traced run of the same inputs.
		err = writeJSON(e2ePath(opt, name), untracedRun{Seed: seed, Seconds: seconds, Metrics: m.e2e})
	}
	if err != nil {
		return nil, err
	}
	res.Failed = r.failed.Load()
	res.Errors = r.errs
	res.Correct = res.Failed == 0
	return res, nil
}

// untracedRun is what an untraced run leaves in bench/out for the traced run
// of the same workload to compare itself with.
type untracedRun struct {
	Seed    int64               `json:"seed"`
	Seconds int                 `json:"seconds"`
	Metrics map[string]measured `json:"metrics"`
}

func e2ePath(opt options, workload string) string {
	return filepath.Join(opt.outDir, "e2e-"+workload+".json")
}

// traceMetrics reduces the spans to the metrics about the measurement
// itself. trace.coverage is reported, not gated: a window around a single
// call (a query, a Shutdown) has one child span over its whole length and is
// covered by construction; only the multi-step restart windows can fall short.
func traceMetrics(r *run, m *measures, spans []spanRec, opt options) map[string]layerTime {
	layers, coverage := summarize(spans)
	m.setLayer("trace.coverage", coverage, 0)
	if n := r.answers.Load(); n > 0 {
		m.setLayer("aggregator.partial_ratio", float64(r.partial.Load())/float64(n), 0)
	}
	m.setLayer("query.undercount_answers", float64(r.undercount.Load()), 0)
	// Overhead: this run's end-to-end timings over those of the last untraced
	// run, when that run had the same seed and length.
	var base untracedRun
	if b, err := os.ReadFile(e2ePath(opt, r.workload)); err == nil && json.Unmarshal(b, &base) == nil &&
		base.Seed == r.seed && base.Seconds == r.seconds {
		var ratios []float64
		for _, name := range []string{"primary_ms", "secondary_ms"} {
			if base.Metrics[name].Value > 0 && m.e2e[name].Value > 0 {
				ratios = append(ratios, m.e2e[name].Value/base.Metrics[name].Value)
			}
		}
		m.setLayer("trace.overhead_ratio", median(ratios), len(ratios))
	}
	return layers
}

// driverLine is the last line of a single-workload run.
func driverLine(res *result) string {
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]metricOut, len(res.Metrics))}
	for name, v := range res.Metrics {
		out.Metrics[name] = metricOut{v.Value, v.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

func findRoot() string {
	cwd, err := os.Getwd()
	if err != nil {
		return "."
	}
	for _, dir := range []string{cwd, filepath.Dir(cwd)} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
	}
	return cwd
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and end with the driver's JSON line (default: all four)")
		seed     = flag.Int64("seed", 1, "workload seed: which rows and queries are generated")
		seconds  = flag.Int("seconds", defaultSeconds, "nominal measured seconds per workload")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/trace-<workload>.json (without -workload: after each untraced run)")
		repeat   = flag.Int("repeat", 1, "run this many full sets")
		check    = flag.Bool("check", false, "with -repeat: report whether the sets agree within each metric's bound")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	root := findRoot()
	opt := options{root: root, outDir: filepath.Join(root, "bench", "out"),
		workDir: filepath.Join(root, ".bench_build", "work")}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	for _, dir := range []string{opt.outDir, opt.workDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	opt.shmBase = shmBase(opt.workDir)

	// Temp dirs and shm segments go away on SIGINT/SIGTERM too.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		removeAllScratch()
		os.Exit(130)
	}()

	code := 0
	if *workload != "" {
		printEnv(os.Stdout, currentEnv(opt))
		res, err := runWorkload(*workload, *seed, *seconds, *trace == 1, full(), opt)
		if err != nil {
			removeAllScratch()
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		printResult(os.Stdout, res)
		fmt.Println(driverLine(res))
		if !res.Correct {
			code = 1
		}
	} else {
		ok, err := runSets(os.Stdout, *repeat, *check, *seed, *seconds, *trace == 1, opt)
		if err != nil {
			removeAllScratch()
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if !ok {
			code = 1
		}
	}
	removeAllScratch()
	os.Exit(code)
}
