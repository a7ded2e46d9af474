package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"text/tabwriter"
)

// environment is what a result file records about where it was measured.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	ShmDir     string `json:"shm_dir"`
	ShmFS      string `json:"shm_filesystem"`
}

// resultFile is bench/out/result.json: every set of runs of one invocation.
type resultFile struct {
	Env     environment `json:"env"`
	Seed    int64       `json:"seed"`
	Seconds int         `json:"seconds"`
	Traced  bool        `json:"traced"`
	// Sets holds one entry per -repeat; each is the four workloads' results.
	Sets [][]*result `json:"sets"`
}

// fsName names the filesystem a directory lives on, from statfs.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext2/3/4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

func currentEnv(opt options) environment {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", opt.root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, ShmDir: opt.shmBase, ShmFS: fsName(opt.shmBase),
	}
}

func printEnv(w io.Writer, env environment) {
	fmt.Fprintf(w, "env: nproc %d, GOMAXPROCS %d, %s, commit %s, shm on %s (%s)\n",
		env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.Commit, env.ShmDir, env.ShmFS)
}

// printResult prints every metric of one run with its name, unit, workload
// and bound, the timing series with their sample counts, and any failures.
func printResult(w io.Writer, res *result) {
	kind := "end-to-end"
	if res.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "== %s  (%s, seed %d, %d s nominal, %.1f s wall)  attempted %d  failed %d\n",
		res.Workload, kind, res.Seed, res.Seconds, res.WallS, res.Attempted, res.Failed)
	fmt.Fprintf(w, "host speed factor %.4f measuring, %.4f in set-up (end-to-end timings are divided by it, rates multiplied; series and per-layer timings are as measured)\n",
		res.Speed, res.SetupSpeed)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmeasures\tvalue\tunit\tsamples\tbound")
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		v := res.Metrics[d.Name]
		bound := "-"
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", d.Bound*100)
		}
		samples := "-"
		if v.Samples > 0 {
			samples = fmt.Sprint(v.Samples)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%s\t%s\t%s\n", res.Workload, d.Name, v.Alias, v.Value, v.Unit, samples, bound)
	}
	tw.Flush()
	if len(res.Series) > 0 {
		tw = tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "series\tsamples\tp50 ms\ttail\ttail ms")
		for _, s := range res.Series {
			fmt.Fprintf(tw, "%s\t%d\t%.4g\tp%g\t%.4g\n", s.Name, s.Samples, s.P50, s.TailPct, s.Tail)
		}
		tw.Flush()
	}
	for _, n := range res.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, e := range res.Errors {
		fmt.Fprintln(w, "FAILED:", e)
	}
}

// runSets runs n full sets of the four workloads, prints each, writes
// result.json and, with check, reports whether the sets agree within every
// end-to-end metric's bound. It returns false when any operation failed or
// the check did not hold.
func runSets(w io.Writer, n int, check bool, seed int64, seconds int, traced bool, opt options) (bool, error) {
	file := resultFile{Env: currentEnv(opt), Seed: seed, Seconds: seconds, Traced: traced}
	printEnv(w, file.Env)
	ok := true
	modes := []bool{false}
	if traced {
		modes = append(modes, true)
	}
	for i := 0; i < n; i++ {
		var set []*result
		for _, wl := range workloads {
			// A traced set reruns each workload traced right after its
			// untraced run, so the overhead ratio compares like with like.
			for _, tr := range modes {
				res, err := runWorkload(wl.name, seed, seconds, tr, full(), opt)
				if err != nil {
					return false, err
				}
				printResult(w, res)
				ok = ok && res.Correct
				set = append(set, res)
			}
		}
		file.Sets = append(file.Sets, set)
	}
	if err := writeJSON(filepath.Join(opt.outDir, "result.json"), file); err != nil {
		return false, err
	}
	if check {
		ok = checkSets(w, file.Sets) && ok
	}
	return ok, nil
}

// cellValues gathers one (workload, metric) cell's value from every set.
func cellValues(sets [][]*result, workload, metric string) []float64 {
	var vs []float64
	for _, set := range sets {
		for _, res := range set {
			if v, ok := res.Metrics[metric]; ok && res.Workload == workload && !res.Traced {
				vs = append(vs, v.Value)
			}
		}
	}
	return vs
}

// checkSets prints, per (metric, workload), the median and quartiles over
// the sets and whether the sets agree: the distance between the smallest and
// the largest value, as a share of the median, is within the metric's bound.
func checkSets(w io.Writer, sets [][]*result) bool {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\trange/median\tbound\tagree")
	all := true
	for _, wl := range workloads {
		for _, d := range endToEnd {
			vs := cellValues(sets, wl.name, d.Name)
			if len(vs) == 0 {
				continue
			}
			s := sorted(vs)
			q1, q3 := quartiles(vs)
			med := median(vs)
			rng := 0.0
			if med != 0 {
				rng = (s[len(s)-1] - s[0]) / med
			}
			agree := rng <= d.Bound
			// setup_s is reported but, as in the driver's rule, not gated
			// on its spread.
			if !agree && d.Name != "setup_s" {
				all = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.3f\t%.2f\t%v\n", wl.name, d.Name, med, q1, q3, rng, d.Bound, agree)
		}
	}
	tw.Flush()
	return all
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict classifies one (metric, workload) cell of a comparison. A cell
// whose run-to-run spread on either side is wider than the bound cannot be
// called either way.
func verdict(d metricDef, a, b []float64) string {
	ma, mb := median(a), median(b)
	if ma == 0 || mb == 0 {
		return "unresolved" // an end-to-end metric is never 0: one side did not measure it
	}
	if (len(a) >= 4 && spread(a) > d.Bound) || (len(b) >= 4 && spread(b) > d.Bound) {
		return "unresolved"
	}
	change := (mb - ma) / ma
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case change > d.Bound:
		return "regressed"
	case change < -d.Bound:
		return "improved"
	}
	return "unchanged"
}

// compareFiles prints one row per (metric, workload) with both medians, the
// bound and the verdict.
func compareFiles(w io.Writer, pathA, pathB string) error {
	fa, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	fb, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\t%s\t%s\tchange\tbound\tverdict\n", filepath.Base(pathA), filepath.Base(pathB))
	for _, wl := range workloads {
		for _, d := range endToEnd {
			a, b := cellValues(fa.Sets, wl.name, d.Name), cellValues(fb.Sets, wl.name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / ma
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n", wl.name, d.Name, ma, mb, change*100, d.Bound*100, verdict(d, a, b))
		}
	}
	return tw.Flush()
}
