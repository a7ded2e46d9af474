package cluster

// The upgrade drill: a fleet rolls from the oldest supported release to this
// tree's build and back, with a tailer ingesting throughout, so every format
// one binary writes and the other reads crosses a real process boundary —
// shm segments, store images, WAL records and the wire protocol. Package
// internal because it swaps ProcCluster's binary between legs.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"scuba/internal/leaf"
	"scuba/internal/query"
	"scuba/internal/rowblock"
	"scuba/internal/shard"
	"scuba/internal/shm"
	"scuba/internal/tailer"
	"scuba/internal/wire"
)

// moduleRoot is the repository root, two levels above this package.
const moduleRoot = "../.."

// buildReference extracts the commit ci/oldest-supported names with git
// archive (no worktree, nothing written under .git) and builds its scubad
// and scuba-aggd. It skips when git, a checkout or the commit is missing: a
// shallow clone has no history to build from.
func buildReference(t *testing.T) (scubad, aggd, ref string) {
	t.Helper()
	git, err := exec.LookPath("git")
	if err != nil {
		t.Skip("no git: cannot build the oldest supported release")
	}
	raw, err := os.ReadFile(filepath.Join(moduleRoot, "ci", "oldest-supported"))
	if err != nil {
		t.Fatal(err)
	}
	ref = strings.TrimSpace(string(raw))
	// The repository may lie above the module: a copy of the tree inside a
	// checkout builds the release from the checkout's history.
	top, err := exec.Command(git, "-C", moduleRoot, "rev-parse", "--show-toplevel").Output()
	if err != nil {
		t.Skipf("not in a git checkout: cannot build the oldest supported release %s", ref)
	}
	repo := strings.TrimSpace(string(top))
	if out, err := exec.Command(git, "-C", repo, "cat-file", "-e", ref+"^{commit}").CombinedOutput(); err != nil {
		t.Skipf("oldest supported release %s is not in this clone (fetch its history): %v %s", ref, err, out)
	}
	src := t.TempDir()
	tarball := filepath.Join(t.TempDir(), "ref.tar")
	for _, cmd := range []*exec.Cmd{
		exec.Command(git, "-C", repo, "archive", "-o", tarball, ref),
		exec.Command("tar", "-x", "-f", tarball, "-C", src),
	} {
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("extracting %s: %v: %v\n%s", ref, cmd.Args, err, out)
		}
	}
	bin := t.TempDir()
	if scubad, err = buildCmd(src, bin, "scubad", false); err != nil {
		t.Fatal(err)
	}
	if aggd, err = buildCmd(src, bin, "scuba-aggd", false); err != nil {
		t.Fatal(err)
	}
	return scubad, aggd, ref
}

// buildBumped builds this tree's scubad from a copy of its Go sources whose
// shm.LayoutVersion reads one more than this build's: the next release's
// shm layout, with every other format this build's.
func buildBumped(t *testing.T) string {
	t.Helper()
	src := t.TempDir()
	err := filepath.WalkDir(moduleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(moduleRoot, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if rel != "go.mod" && (!strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(src, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(src, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(src, "internal", "shm", "shm.go")
	code, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`(?m)^const LayoutVersion uint32 = \d+$`)
	if len(line.FindAll(code, -1)) != 1 {
		t.Fatal("internal/shm/shm.go has no single LayoutVersion line to bump")
	}
	code = line.ReplaceAll(code, []byte("const LayoutVersion uint32 = "+strconv.Itoa(int(shm.LayoutVersion)+1)))
	if err := os.WriteFile(path, code, 0o644); err != nil {
		t.Fatal(err)
	}
	bin, err := buildCmd(src, t.TempDir(), "scubad", false)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// upgradeIngest is the tailer of the drill: batches of upgradeBatchRows
// rows, each whole batch in one shard (the placer's round robin) and tagged
// with its number, placed until stop. A batch is acked when every owner the
// placer wrote to took it; one a replica missed (it was restarting) is only
// sent, because a read may land on the replica that missed it.
type upgradeIngest struct {
	placer *tailer.ShardedPlacer
	// mu is held around each Place; a check holds it to stop the ingest.
	mu    sync.Mutex
	sent  [][]rowblock.Row
	acked map[int]bool
	// underReplicated counts the batches Place reported placed that a
	// replica missed: the placer never re-sends them, so the replicas of
	// their shard differ (a known defect; acked excludes them until the
	// placer repairs what a restarting owner missed).
	underReplicated int
	stop            chan struct{}
	done            chan struct{}
}

const upgradeBatchRows = 20

func startUpgradeIngest(placer *tailer.ShardedPlacer) *upgradeIngest {
	ing := &upgradeIngest{placer: placer, acked: map[int]bool{}, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(ing.done)
		for {
			select {
			case <-ing.stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			ing.mu.Lock()
			ing.placeNext()
			ing.mu.Unlock()
		}
	}()
	return ing
}

func (ing *upgradeIngest) placeNext() {
	n := len(ing.sent)
	rows := make([]rowblock.Row, upgradeBatchRows)
	for i := range rows {
		k := n*upgradeBatchRows + i
		rows[i] = rowblock.Row{Time: 1700000000 + int64(k/7), Cols: map[string]rowblock.Value{
			"batch":      rowblock.StringValue(fmt.Sprintf("b%06d", n)),
			"service":    rowblock.StringValue([]string{"web", "ads", "search"}[k%3]),
			"host":       rowblock.StringValue(fmt.Sprintf("h%d", k%11)),
			"latency_ms": rowblock.Int64Value(int64(k * 37 % 1000)),
		}}
	}
	ing.sent = append(ing.sent, rows)
	missed := ing.placer.Stats().MissedCopies
	if _, err := ing.placer.Place("events", rows); err == nil {
		if ing.placer.Stats().MissedCopies == missed {
			ing.acked[n] = true
		} else {
			ing.underReplicated++
		}
	}
}

func (ing *upgradeIngest) close() {
	close(ing.stop)
	<-ing.done
}

// upgradeGolden are the queries every check answers through each
// aggregator: every aggregate kind, grouped, bucketed and filtered.
var upgradeGolden = []*query.Query{
	{Table: "events", From: 0, To: 1 << 40, GroupBy: []string{"service"},
		Aggregations: []query.Aggregation{{Op: query.AggCount}, {Op: query.AggSum, Column: "latency_ms"}, {Op: query.AggAvg, Column: "latency_ms"}}},
	{Table: "events", From: 0, To: 1 << 40, GroupBy: []string{"host"},
		Aggregations: []query.Aggregation{{Op: query.AggMin, Column: "latency_ms"}, {Op: query.AggMax, Column: "latency_ms"}, {Op: query.AggP50, Column: "latency_ms"}, {Op: query.AggP99, Column: "latency_ms"}}},
	{Table: "events", From: 0, To: 1 << 40, TimeBucketSeconds: 300,
		Aggregations: []query.Aggregation{{Op: query.AggCount}, {Op: query.AggCountDistinct, Column: "host"}}},
	{Table: "events", From: 0, To: 1 << 40, Filters: []query.Filter{{Column: "service", Op: query.OpEq, Str: "web"}},
		Aggregations: []query.Aggregation{{Op: query.AggCount}, {Op: query.AggSum, Column: "latency_ms"}}},
}

// checkAnswers stops the ingest and, through each aggregator, reads which
// batches the fleet holds — acked ⊆ recovered ⊆ sent, every batch whole,
// the same batches through every aggregator — and requires every golden
// query to equal query.Reference over exactly those rows, with every shard
// answered.
func (ing *upgradeIngest) checkAnswers(t *testing.T, leg string, aggs map[string]Querier) {
	t.Helper()
	ing.mu.Lock()
	defer ing.mu.Unlock()
	var firstHeld map[int]bool
	var firstName string
	byBatch := &query.Query{Table: "events", From: 0, To: 1 << 40, GroupBy: []string{"batch"},
		Aggregations: []query.Aggregation{{Op: query.AggCount}}}
	for name, agg := range aggs {
		res, err := agg.Query(byBatch)
		if err != nil {
			t.Fatalf("%s, %s: %v", leg, name, err)
		}
		// Every check runs with both leaves up, and with 16 shards each is
		// some shard's primary: a mid-roll check reads both releases.
		if res.ShardCoverage() != 1 || res.LeavesAnswered != 2 {
			t.Fatalf("%s, %s: shard coverage %d/%d from %d leaves", leg, name, res.ShardsAnswered, res.ShardsTotal, res.LeavesAnswered)
		}
		var rows []rowblock.Row
		held := map[int]bool{}
		for _, r := range res.Rows(byBatch) {
			n, err := strconv.Atoi(strings.TrimPrefix(r.Key[0], "b"))
			if err != nil || n >= len(ing.sent) {
				t.Fatalf("%s, %s: batch %q was never sent", leg, name, r.Key[0])
			}
			if r.Values[0] != upgradeBatchRows {
				t.Fatalf("%s, %s: batch %d holds %v of its %d rows", leg, name, n, r.Values[0], upgradeBatchRows)
			}
			held[n] = true
			rows = append(rows, ing.sent[n]...)
		}
		for n := range ing.acked {
			if !held[n] {
				t.Fatalf("%s, %s: acked batch %d is lost (%d of %d sent batches held, %d acked)", leg, name, n, len(held), len(ing.sent), len(ing.acked))
			}
		}
		if firstHeld == nil {
			firstHeld, firstName = held, name
		} else if !reflect.DeepEqual(held, firstHeld) {
			t.Fatalf("%s: %s reads %d batches, %s reads %d: the aggregators read different replicas", leg, name, len(held), firstName, len(firstHeld))
		}
		for i, q := range upgradeGolden {
			got, err := agg.Query(q)
			if err != nil {
				t.Fatalf("%s, %s, golden query %d: %v", leg, name, i, err)
			}
			want, err := query.Reference(rows, q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Rows(q), want.Rows(q)) {
				t.Fatalf("%s, %s, golden query %d:\n got %+v\nwant %+v", leg, name, i, got.Rows(q), want.Rows(q))
			}
		}
		t.Logf("%s, %s: %d of %d sent batches held, %d acked, %d placed with a replica missing", leg, name, len(held), len(ing.sent), len(ing.acked), ing.underReplicated)
	}
}

// startRefAggd runs the reference release's scuba-aggd over the fleet with
// the same shard map as the cluster's own aggregator.
func startRefAggd(t *testing.T, bin string, pc *ProcCluster) *wire.Client {
	t.Helper()
	addrs, err := freeLoopbackAddrs(1)
	if err != nil {
		t.Fatal(err)
	}
	var leaves, machines []string
	for _, l := range pc.Leaves() {
		leaves = append(leaves, l.Addr)
		machines = append(machines, strconv.Itoa(l.Machine))
	}
	cmd := exec.Command(bin, "-addr", addrs[0], "-leaves", strings.Join(leaves, ","),
		"-machines", strings.Join(machines, ","), "-replication", strconv.Itoa(pc.cfg.Replication),
		"-num-shards", strconv.Itoa(pc.cfg.NumShards), "-profile-interval", "0")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := wire.Dial(addrs[0])
	t.Cleanup(func() {
		c.Close()
		cmd.Process.Kill() //nolint:errcheck
		cmd.Wait()         //nolint:errcheck // killed
	})
	for deadline := time.Now().Add(readyTimeout); c.Ping() != nil; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the reference scuba-aggd never answered")
		}
	}
	// Both aggregators must route by one map, or their answers differ by
	// which replica each read.
	refMap, _, _, err := c.ShardMap()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := pc.router.Map().Encode()
	if got, _ := refMap.Encode(); !bytes.Equal(got, want) {
		t.Fatal("the reference scuba-aggd built another shard map")
	}
	return c
}

// wantRecovery requires the leaf's last start to have brought every table
// back by want with nothing to work around: no table with a reason (a
// rejected segment, a damaged image, a dropped log tail) and no fall back
// from an unreadable metadata.
func wantRecovery(t *testing.T, leg string, l *ProcLeaf, want leaf.RecoveryPath, reason string) {
	t.Helper()
	resp, err := http.Get("http://" + l.HTTPAddr + "/debug/recovery")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Recovery struct {
			Path         leaf.RecoveryPath
			FellBack     bool
			PerTablePath []leaf.TableRecovery
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	rec := body.Recovery
	ok := rec.Path == want && !rec.FellBack
	for _, tr := range rec.PerTablePath {
		ok = ok && tr.Path == want && (tr.Reason == "") == (reason == "") && strings.Contains(tr.Reason, reason)
	}
	if !ok {
		t.Fatalf("%s: leaf %d came back by %s (FellBack %v, tables %+v), want %s throughout, every table's reason naming %q",
			leg, l.ID, rec.Path, rec.FellBack, rec.PerTablePath, want, reason)
	}
}

// TestUpgradeRollover is the version-skew drill: a 2-machine fleet at R=2,
// the WAL on, rolls from the oldest supported release (ci/oldest-supported,
// "ref") to this build ("head") and back while a tailer ingests and a probe
// queries. Each leg is a row of DESIGN.md §13's skew matrix: who wrote what
// the next binary reads, and the recovery path that reading must take.
//
//	leg  writer        reader        formats crossing                 recovery
//	1    ref           —             —                                (fresh start)
//	2    ref           head          shm LayoutVersion 2 vs 4         wal (skew)
//	     ref / head    both aggds    protocol 4, mixed fleet          —
//	3    head          head          shm LayoutVersion 4, instant-on  shm-view
//	4    head          head+1        shm LayoutVersion 4 vs 5         wal (skew)
//	5    head+1        head          shm LayoutVersion 5 vs 4         wal (skew)
//	6    head          ref           store images, WAL records        wal (kill -9)
//	7    ref           ref           shm LayoutVersion 2              memory
//	7    head          ref           shm LayoutVersion 4 vs 2         wal (skew)
//
// head+1 is this build with shm.LayoutVersion one higher. A skewed start
// takes the store and the log, which hold everything the shm backup does
// because a clean shutdown leaves the log on disk, and never a view of the
// foreign segments; this build's tables then each name the skew as their
// reason (ref's predate that). Legs 3 to 5 start instant-on, so a view is
// what a skewed start would serve if it trusted the wrong segments. After
// every leg both this build's aggregator and the reference's scuba-aggd
// answer every golden query as query.Reference does over the batches the
// fleet holds, and those hold every acked batch and no batch that was not
// sent; no rollover reports a restart degraded.
func TestUpgradeRollover(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping the subprocess upgrade drill")
	}
	start := time.Now()
	ref, refAggd, refName := buildReference(t)
	head, err := BuildScubad(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bumped := buildBumped(t)
	t.Logf("built the reference %.12s, this tree and its layout %d twin in %v", refName, shm.LayoutVersion+1, time.Since(start).Round(time.Millisecond))

	pc, err := StartProcCluster(ProcConfig{
		BinPath:          ref,
		Machines:         2,
		LeavesPerMachine: 1,
		Replication:      2,
		NumShards:        16,
		WorkDir:          t.TempDir(),
		Namespace:        "upgrade",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pc.Close)

	// The probe reads a table written once, before any restart: every answer
	// it gets must be the baseline.
	static := make([]rowblock.Row, 600)
	for i := range static {
		static[i] = rowblock.Row{Time: int64(1000 + i), Cols: map[string]rowblock.Value{
			"service": rowblock.StringValue([]string{"web", "ads", "search"}[i%3]),
		}}
	}
	placer := pc.NewShardedPlacer()
	for i := 0; i < len(static); i += 100 {
		if _, err := placer.Place("static", static[i:i+100]); err != nil {
			t.Fatal(err)
		}
	}
	if err := pc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	probeQ := &query.Query{Table: "static", From: 0, To: 1 << 40, GroupBy: []string{"service"},
		Aggregations: []query.Aggregation{{Op: query.AggCount}}}
	baseline, err := query.Reference(static, probeQ)
	if err != nil {
		t.Fatal(err)
	}
	probe := StartProbe(pc.AggClient(), ProbeConfig{Query: probeQ, Check: func(res *query.Result) error {
		if !reflect.DeepEqual(res.Rows(probeQ), baseline.Rows(probeQ)) {
			return errors.New("the static table's answer drifted")
		}
		return nil
	}})
	ing := startUpgradeIngest(placer)
	t.Cleanup(ing.close)

	// roll restarts every leaf on bin, one machine at a time (instant-on or
	// not), and requires each to come back by the path want names for it,
	// every table's reason naming what want says ("" for none).
	var aggs map[string]Querier
	type outcome func(id int) (leaf.RecoveryPath, string)
	all := func(p leaf.RecoveryPath, reason string) outcome {
		return func(int) (leaf.RecoveryPath, string) { return p, reason }
	}
	const skew = "layout version skew"
	roll := func(leg, bin string, instantOn bool, want outcome, onMixed func(draining string)) {
		t.Helper()
		pc.cfg.BinPath = bin
		pc.SetInstantOn(instantOn)
		rep, err := pc.Rollover(RolloverConfig{
			BatchFraction: 0.5,
			UseShm:        true,
			KillTimeout:   time.Minute,
			Tables:        []string{"static", "events"},
			OnBatch: func(batch int, draining []string, _ Snapshot) {
				if batch == 1 && onMixed != nil {
					onMixed(draining[0])
				}
			},
		})
		if err != nil || len(rep.Quarantined) != 0 || len(rep.Degraded) != 0 {
			t.Fatalf("%s: rollover: %v, quarantined %v, degraded %v (restarts %+v)", leg, err, rep.Quarantined, rep.Degraded, rep.Restarts)
		}
		for _, r := range rep.Restarts {
			path, reason := want(r.Leaf)
			wantRecovery(t, leg, pc.Leaf(r.Leaf), path, reason)
		}
		ing.checkAnswers(t, leg, aggs)
	}

	// Leg 1: the fleet on the reference, ingesting.
	time.Sleep(300 * time.Millisecond)
	aggs = map[string]Querier{"this build's aggregator": pc.AggClient(), "the reference scuba-aggd": startRefAggd(t, refAggd, pc)}
	ing.checkAnswers(t, "1 reference fleet", aggs)

	// Leg 2: roll to this build, which cannot read the reference's segments.
	// Halfway, one leaf of each release serves: with both ACTIVE for the
	// check, either aggregator's plan spans both.
	roll("2 reference → this build", head, false, all(leaf.RecoveryWAL, skew), func(draining string) {
		id := pc.router.Map().LeafIndex(draining)
		if err := pc.router.SetStatus(id, shard.StatusActive); err != nil {
			t.Fatal(err)
		}
		ing.checkAnswers(t, "2 mixed fleet", aggs)
		if err := pc.router.SetStatus(id, shard.StatusDraining); err != nil {
			t.Fatal(err)
		}
	})

	// Leg 3: this build's segments, served in place by this build.
	roll("3 this build → this build, instant-on", head, true, all(leaf.RecoveryShmView, ""), nil)

	// Leg 4: the same two rolls with the next layout version: neither build
	// may serve a view of the other's segments, and both come back from the
	// store and the log.
	roll("4 this build → layout bump", bumped, true, all(leaf.RecoveryWAL, skew), nil)
	roll("5 layout bump → this build", head, true, all(leaf.RecoveryWAL, skew), nil)

	// Leg 6: this build's store images and WAL records, read by the
	// reference after a kill -9 mid-ingest.
	pc.SetInstantOn(false)
	victim := pc.Leaf(0)
	if err := victim.Client().Flush(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // a log tail past the images
	if err := victim.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := victim.waitExit(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	pc.cfg.BinPath = ref
	if err := pc.startLeaf(victim); err != nil {
		t.Fatal(err)
	}
	if err := pc.waitReady(victim); err != nil {
		t.Fatal(err)
	}
	wantRecovery(t, "6 kill -9 → reference", victim, leaf.RecoveryWAL, "")
	ing.checkAnswers(t, "6 kill -9 → reference", aggs)

	// Leg 7: back to the reference, which reads its own segments and not
	// this build's.
	roll("7 back to the reference", ref, false, func(id int) (leaf.RecoveryPath, string) {
		if id == victim.ID {
			return leaf.RecoveryMemory, ""
		}
		return leaf.RecoveryWAL, ""
	}, nil)

	avail := probe.Stop()
	if avail.Wrong != 0 || avail.Queries == 0 {
		t.Fatalf("the probe saw %d wrong answers in %d queries", avail.Wrong, avail.Queries)
	}
	t.Logf("probe: %d queries, %d errors, min shard coverage %.2f; %v",
		avail.Queries, avail.Errors, avail.MinShardCoverage, time.Since(start).Round(time.Millisecond))
}
