package scuba_test

// The instant-on availability gate: a rolling restart with -instant-on must
// bring every scubad replacement back serving correct results in a small
// fraction of the copy-in barrier's time. CI's instant-on-smoke job runs
// this on every PR under -race; it is the enforcement half of the
// restart_shm workload's instant-on gap (bench/, EXPERIMENTS.md E22).

import (
	"errors"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"scuba"
	"scuba/internal/obs"
)

// instantOnSmokeRows is sized so the copy-in restore is long enough
// (milliseconds, more under -race) that the <10% ratio measures the
// restart paths and not fixed leaf-boot overhead or scheduler noise.
const instantOnSmokeRows = 1000000

func TestInstantOnRolloverSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping subprocess instant-on smoke")
	}
	// Race-instrumented daemons: the promoter, scan pins, and view refcounts
	// run under the detector inside scubad itself, not just in this harness.
	raceBin, err := scuba.BuildScubadRace(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pc := startRolloverCluster(t, 1, 2, instantOnSmokeRows, func(cfg *scuba.ProcConfig) {
		cfg.BinPath = raceBin
		cfg.TelemetryInterval = 200 * time.Millisecond // restart spans land in each leaf's __system.traces
	})
	n := len(pc.Leaves())
	q := rolloverQuery()
	agg := pc.AggClient()

	baseline, err := agg.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	baseRows := baseline.Rows(q)
	if len(baseRows) == 0 {
		t.Fatal("baseline returned no rows")
	}

	roll := scuba.RolloverConfig{
		BatchFraction: 0.5,
		MaxPerMachine: 1,
		UseShm:        true,
		KillTimeout:   time.Minute,
		Tables:        []string{"service_logs"},
	}

	// Rollover 1: the copy-in barrier, the paper's restart path — the
	// denominator of the availability ratio.
	rep1, err := pc.Rollover(roll)
	if err != nil {
		t.Fatalf("copy-in rollover: %v", err)
	}
	if got := rep1.Recoveries[scuba.RecoveryMemory]; got != n {
		t.Fatalf("copy-in rollover: memory recoveries = %d, want %d (report: %+v)", got, n, rep1)
	}
	// The restore cost of a table is read off its restart spans: on this
	// rollover the segment's CRC pass plus the copy to the heap. That is the
	// restore's data-proportional part, not whole-Start: fixed leaf-boot
	// costs (WAL open, disk store) are identical on both paths and
	// independent of data size, so at production scale they vanish — at
	// smoke scale they'd drown the signal.
	copyIn := restoreCosts(t, pc, obs.PhaseTableCRC, obs.PhaseTableCopyIn)

	// Rollover 2: instant-on over the same data, unprobed — the ratio
	// measurement. The gap rollover and the probed rollover are separate: a
	// probe's race-instrumented scans timeslice
	// against a restoring leaf's validation on a small box and would turn a
	// ~250µs validation into scheduler noise.
	pc.SetInstantOn(true)
	roll.MaxAvailabilityGap = 30 * time.Second // sanity bound, not the gate
	rep2, err := pc.Rollover(roll)
	if err != nil {
		t.Fatalf("instant-on rollover: %v", err)
	}
	if got := rep2.Recoveries[scuba.RecoveryShmView]; got != n {
		t.Fatalf("instant-on rollover: shm-view recoveries = %d, want %d (report: %+v)", got, n, rep2)
	}
	waitPromotionDrained(t, pc)

	for _, l := range pc.Leaves() {
		rec, err := l.Recovery()
		if err != nil {
			t.Fatal(err)
		}
		if rec.Path != string(scuba.RecoveryShmView) {
			t.Errorf("leaf %d recovered via %q, want shm-view", l.ID, rec.Path)
		}
		if rec.PromotedBlocks == 0 {
			t.Errorf("leaf %d promoted no blocks", l.ID)
		}
	}
	// On this rollover a table's restore is its view span: map read-only,
	// CRC, decode the block directories in place.
	view := restoreCosts(t, pc, obs.PhaseTableView)

	// The gate's ratio half. The statistic: for every (leaf, table) pair,
	// the table's instant-on restore over the same table's copy-in restore
	// on the same leaf — the same segment bytes on both sides — then, per
	// leaf, the median of those ratios over its tables, then the median over
	// leaves (with two leaves, their mean). Medians, because noise only ever
	// inflates a restart timing (scheduler preemption, GC, the previous
	// batch's background promotion on a starved runner) and it inflates a few
	// samples at a time; pairing per table, because the ratio of two sums is
	// steered by whichever table the noise landed on.
	//
	// The 10% contract assumes the validation CRC can spread across ≥2 cores
	// (checksumParallel) while the copy-in decode stays serial per table —
	// true on CI runners. A single-core box runs the CRC serially, where the
	// intrinsic asm-CRC-to-race-decode ratio is already ~9%, so the gate
	// falls back to 20% there rather than asserting on scheduler noise.
	var perLeaf []float64
	for leaf, tables := range view {
		var ratios []float64
		for table, d := range tables {
			if base := copyIn[leaf][table]; base > 0 {
				ratios = append(ratios, float64(d)/float64(base))
			}
		}
		if len(ratios) == 0 || len(ratios) != len(copyIn[leaf]) {
			t.Fatalf("leaf %d: %d tables restored instant-on, %d by copy-in", leaf, len(tables), len(copyIn[leaf]))
		}
		perLeaf = append(perLeaf, median(ratios))
		t.Logf("leaf %d: instant-on / copy-in restore per table, median %.1f%% of %d tables", leaf, 100*median(ratios), len(ratios))
	}
	ratio := median(perLeaf)
	bar := 0.10
	if runtime.NumCPU() == 1 {
		bar = 0.20
	}
	if ratio >= bar {
		t.Errorf("instant-on restore is %.1f%% of the copy-in restore (median over leaves of the per-table median), want < %.0f%%",
			100*ratio, 100*bar)
	}

	// Rollover 3: instant-on again, under a continuous byte-identical query
	// probe that keeps running until every leaf's background promotion
	// drains — zero wrong results during restart, serving-from-shm,
	// promotion, and the handoff is the correctness half of the gate.
	probe := scuba.StartAvailabilityProbe(agg, scuba.ProbeConfig{
		Query: q,
		Check: func(res *scuba.Result) error {
			if !reflect.DeepEqual(res.Rows(q), baseRows) {
				return errors.New("result drifted from baseline")
			}
			return nil
		},
	})
	rep3, err := pc.Rollover(roll)
	if err != nil {
		probe.Stop()
		t.Fatalf("probed instant-on rollover: %v", err)
	}
	if got := rep3.Recoveries[scuba.RecoveryShmView]; got != n {
		t.Fatalf("probed instant-on rollover: shm-view recoveries = %d, want %d (report: %+v)", got, n, rep3)
	}
	waitPromotionDrained(t, pc)
	avail := probe.Stop()

	if avail.Queries == 0 {
		t.Fatal("no queries completed during the instant-on rollover")
	}
	if avail.Errors != 0 {
		t.Errorf("%d of %d queries failed during the instant-on rollover", avail.Errors, avail.Queries)
	}
	if avail.Wrong != 0 {
		t.Errorf("%d of %d queries returned non-baseline results during promotion", avail.Wrong, avail.Queries)
	}
	after, err := agg.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Rows(q), baseRows) {
		t.Error("post-promotion result differs from baseline")
	}
	t.Logf("instant-on restore %.1f%% of the copy-in restore; %d probe queries, %d wrong; max boot-to-ping gap %v",
		100*ratio, avail.Queries, avail.Wrong, rep3.MaxGap)
}

// restoreCosts reads every leaf's newest restart trace from its own
// __system.traces and returns, per leaf and table of the loaded data (the
// shards of service_logs; a leaf's own __system tables are a few rows), the
// time of the table's start-half spans of the given phases. A restart's spans
// reach the table behind ALIVE, so it polls until the newest trace has them.
func restoreCosts(t *testing.T, pc *scuba.ProcCluster, phases ...string) map[int]map[string]time.Duration {
	t.Helper()
	out := make(map[int]map[string]time.Duration)
	for _, l := range pc.Leaves() {
		costs := make(map[string]time.Duration)
		for deadline := time.Now().Add(30 * time.Second); len(costs) == 0; time.Sleep(50 * time.Millisecond) {
			var newest scuba.Trace
			if traces := systemTraces(t, l.Client(), scuba.Filter{Column: "kind", Str: obs.KindRestart}); len(traces) > 0 {
				newest = traces[0]
			}
			for _, st := range newest.Half(obs.HalfStart).Phases(phases...).Tables() {
				if strings.HasPrefix(st.Table, "service_logs") {
					costs[st.Table] = st.Duration
				}
			}
			if len(costs) == 0 && time.Now().After(deadline) {
				t.Fatalf("leaf %d: no %v spans in its newest restart trace: %+v", l.ID, phases, newest)
			}
		}
		out[l.ID] = costs
	}
	return out
}

func median(v []float64) float64 {
	sort.Float64s(v)
	if n := len(v); n%2 == 1 {
		return v[n/2]
	} else {
		return (v[n/2-1] + v[n/2]) / 2
	}
}

// waitPromotionDrained polls /debug/recovery until no leaf still serves any
// block from a mapped shm view.
func waitPromotionDrained(t *testing.T, pc *scuba.ProcCluster) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resident := int64(0)
		for _, l := range pc.Leaves() {
			rec, err := l.Recovery()
			if err != nil {
				t.Fatal(err)
			}
			resident += rec.ServedFromShm
		}
		if resident == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("promotion never drained")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
