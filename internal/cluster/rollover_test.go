package cluster

// One suite for the one rollover driver: every case runs against a fake
// fleet (scripted restarts, no processes — what a case says about batching,
// tallying and the guards is then a statement about the driver alone) and
// against the in-process fleet (real leaves, real shared memory, faults
// injected at the sites the case names). The subprocess fleet's keystones
// live at the repository root.

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"scuba/internal/fault"
	"scuba/internal/leaf"
	"scuba/internal/metrics"
	"scuba/internal/obs"
	"scuba/internal/shard"
)

// fakeMember is a leaf slot with no process behind it: restart reports what
// the case scripted. Its status lives in a real shard router, so the batch
// picker's coverage veto sees what it sees for a real fleet.
type fakeMember struct {
	id, machine int
	router      *shard.Router
	// outcome is what restart reports beyond the slot's identity; the zero
	// value is a clean restart by the path the config asks for.
	outcome Restart
}

func (m *fakeMember) ident() (int, int, string) { return m.id, m.machine, fmt.Sprintf("node%d", m.id) }

func (m *fakeMember) setStatus(st shard.Status) error {
	if m.router == nil {
		return nil
	}
	_, _, name := m.ident()
	return m.router.SetStatusByName(name, st)
}

func (m *fakeMember) restart(cfg RolloverConfig, rs *Restart) error {
	*rs = m.outcome
	rs.Leaf, _, rs.Name = m.ident()
	if rs.Err != "" {
		return errors.New(rs.Err)
	}
	if rs.Recovery == "" {
		rs.Recovery = leaf.RecoveryDisk
		if cfg.UseShm {
			rs.Recovery = leaf.RecoveryMemory
		}
	}
	if rs.Gap == 0 {
		rs.Gap = time.Millisecond
	}
	return nil
}

// suiteFleet is one fleet a case ran against, with what the run recorded.
type suiteFleet struct {
	router  *shard.Router // nil when the case has no replication
	machine map[string]int
	// fakes or cluster is set, by fleet kind, for a case's sabotage and for
	// the few checks only a real leaf can answer.
	fakes   []*fakeMember
	cluster *Cluster
	loaded  int // rows of "events" the in-process fleet holds

	run     func(cfg RolloverConfig) (*RolloverReport, error)
	batches [][]string
	reg     *metrics.Registry
	rec     *obs.Recorder
}

type rolloverCase struct {
	name                 string
	machines, perMachine int
	replication, shards  int // replication 0 = no shard map
	cfg                  RolloverConfig
	// sabotage, if set, makes restarts misbehave before the rollover runs,
	// by each fleet's own means.
	sabotage func(t *testing.T, f *suiteFleet)
	check    func(t *testing.T, f *suiteFleet, rep *RolloverReport, err error)
}

func buildFakeFleet(t *testing.T, tc rolloverCase) *suiteFleet {
	f := &suiteFleet{machine: map[string]int{}}
	leaves := make([]shard.Leaf, tc.machines*tc.perMachine)
	fleet := make([]member, len(leaves))
	for i := range fleet {
		m := &fakeMember{id: i, machine: i / tc.perMachine}
		_, _, name := m.ident()
		leaves[i] = shard.Leaf{Name: name, Machine: m.machine}
		f.machine[name] = m.machine
		f.fakes = append(f.fakes, m)
		fleet[i] = m
	}
	if tc.replication > 0 {
		f.router = shard.NewRouter(shard.NewMap(leaves, tc.replication, tc.shards))
		for _, m := range f.fakes {
			m.router = f.router
		}
	}
	f.run = func(cfg RolloverConfig) (*RolloverReport, error) { return rollover(fleet, f.router, cfg) }
	return f
}

func buildNodeFleet(t *testing.T, tc rolloverCase) *suiteFleet {
	f := &suiteFleet{machine: map[string]int{}, loaded: 100 * tc.machines * tc.perMachine}
	if tc.replication > 0 {
		f.cluster = newShardedCluster(t, tc.machines, tc.perMachine, tc.replication, tc.shards)
		loadSharded(t, f.cluster, f.loaded)
	} else {
		f.cluster = newCluster(t, tc.machines, tc.perMachine)
		loadCluster(t, f.cluster, f.loaded)
	}
	f.router = f.cluster.Router()
	for _, n := range f.cluster.Nodes() {
		f.machine[n.Name()] = n.Machine
	}
	f.run = f.cluster.Rollover
	return f
}

// intact: whatever the rollover did to the in-process fleet, every row
// loaded before it is still counted, at full coverage — from the restarted
// leaves themselves or, for a quarantined one, from its replicas.
func (f *suiteFleet) intact(t *testing.T) {
	t.Helper()
	if f.cluster == nil {
		return
	}
	got, res := totalCount(t, f.cluster)
	cov := res.Coverage()
	if f.router != nil {
		cov = res.ShardCoverage()
	}
	if got != float64(f.loaded) || cov != 1 {
		t.Errorf("after the rollover: count = %v (want %d), coverage = %v", got, f.loaded, cov)
	}
}

// recoveries builds a report's expected tally from (path, count) pairs; a
// path nothing took has no entry.
func recoveries(pairs ...any) map[leaf.RecoveryPath]int {
	m := map[leaf.RecoveryPath]int{}
	for i := 0; i < len(pairs); i += 2 {
		if n := pairs[i+1].(int); n > 0 {
			m[pairs[i].(leaf.RecoveryPath)] = n
		}
	}
	return m
}

func wantClean(t *testing.T, rep *RolloverReport, err error, batches int, want map[leaf.RecoveryPath]int) {
	t.Helper()
	if err != nil {
		t.Fatalf("rollover: %v", err)
	}
	if rep.Batches != batches || len(rep.Timeline) != batches {
		t.Errorf("batches = %d, timeline = %d points, want %d", rep.Batches, len(rep.Timeline), batches)
	}
	if !reflect.DeepEqual(rep.Recoveries, want) {
		t.Errorf("recoveries = %v, want %v", rep.Recoveries, want)
	}
	if len(rep.Quarantined) != 0 || rep.Aborted {
		t.Errorf("quarantined = %v, aborted = %v", rep.Quarantined, rep.Aborted)
	}
	for i, rs := range rep.Restarts {
		if rs.Leaf != i || rs.Err != "" || rs.Gap <= 0 || rs.Gap > rep.MaxGap {
			t.Errorf("restart %d = %+v (max gap %v)", i, rs, rep.MaxGap)
		}
	}
}

// everyRestartFallsToDisk is the "new build can't read old segments"
// scenario: each restarted leaf hits a metadata read error.
func everyRestartFallsToDisk(t *testing.T, f *suiteFleet) {
	for _, m := range f.fakes {
		m.outcome.Recovery = leaf.RecoveryDisk
	}
	if f.cluster != nil {
		if err := fault.ArmSpec("shm.map=error"); err != nil {
			t.Fatal(err)
		}
	}
}

var rolloverCases = []rolloverCase{
	{
		name: "shm path", machines: 4, perMachine: 4,
		cfg: RolloverConfig{BatchFraction: 0.125, UseShm: true},
		check: func(t *testing.T, f *suiteFleet, rep *RolloverReport, err error) {
			wantClean(t, rep, err, 8, recoveries(leaf.RecoveryMemory, 16))
			if got := rep.MinAvailability(); got != 0.875 {
				t.Errorf("min availability = %v with 2 of 16 leaves per batch", got)
			}
			last := rep.Timeline[7]
			if last.OldVersion != 0 || last.RollingOver != 2 || last.NewVersion != 14 {
				t.Errorf("last batch's dashboard = %+v", last)
			}
			if got := f.reg.Counter("rollover.recovery.memory").Value(); got != 16 {
				t.Errorf("rollover.recovery.memory = %d", got)
			}
			if got := f.reg.Counter("rollover.restarts").Value(); got != 16 {
				t.Errorf("rollover.restarts = %d", got)
			}
			if c := f.cluster; c != nil {
				if got := aliveOn(c, 2); got != 16 {
					t.Errorf("%d of 16 nodes alive on version 2", got)
				}
				if tr := c.Node(rep.Restarts[0].Leaf).current().RestartTrace().Half(obs.HalfStart); len(tr.Phases(obs.PhaseTableCopyIn)) == 0 {
					t.Errorf("restart trace shows no table copied in: %+v", tr)
				}
			}
		},
	},
	{
		name: "disk baseline", machines: 2, perMachine: 2,
		cfg: RolloverConfig{BatchFraction: 0.25},
		check: func(t *testing.T, f *suiteFleet, rep *RolloverReport, err error) {
			// A leaf the placer gave no rows has nothing to recover.
			disk, none := rep.Recoveries[leaf.RecoveryDisk], rep.Recoveries[leaf.RecoveryNone]
			wantClean(t, rep, err, 4, recoveries(leaf.RecoveryDisk, disk, leaf.RecoveryNone, none))
			if disk+none != 4 || disk == 0 {
				t.Errorf("recoveries = %v, want all 4 from disk", rep.Recoveries)
			}
		},
	},
	{
		// §2: a batch's leaves sit on distinct machines so each gets its
		// machine's full bandwidth.
		name: "one per machine", machines: 4, perMachine: 4,
		cfg: RolloverConfig{BatchFraction: 0.25, UseShm: true},
		check: func(t *testing.T, f *suiteFleet, rep *RolloverReport, err error) {
			wantClean(t, rep, err, 4, recoveries(leaf.RecoveryMemory, 16))
			for b, names := range f.batches {
				seen := map[int]bool{}
				for _, name := range names {
					if seen[f.machine[name]] {
						t.Errorf("batch %d restarts two leaves of machine %d: %v", b, f.machine[name], names)
					}
					seen[f.machine[name]] = true
				}
				if len(names) != 4 {
					t.Errorf("batch %d = %v, want 4 leaves", b, names)
				}
			}
		},
	},
	{
		name: "2% default", machines: 2, perMachine: 2,
		cfg: RolloverConfig{UseShm: true},
		check: func(t *testing.T, f *suiteFleet, rep *RolloverReport, err error) {
			// ceil(0.02*4) = 1 per batch.
			wantClean(t, rep, err, 4, recoveries(leaf.RecoveryMemory, 4))
			if c := f.cluster; c != nil {
				// The default target version bumps 1 -> 2.
				if got := aliveOn(c, 2); got != 4 {
					t.Errorf("%d of 4 nodes alive on version 2", got)
				}
			}
		},
	},
	{
		// Asked for the whole fleet at once, the picker still never drains
		// every owner of a shard of a listed table.
		name: "shard coverage veto", machines: 4, perMachine: 2, replication: 2, shards: 16,
		cfg: RolloverConfig{BatchFraction: 1, UseShm: true, Tables: []string{"events"}},
		check: func(t *testing.T, f *suiteFleet, rep *RolloverReport, err error) {
			wantClean(t, rep, err, len(f.batches), recoveries(leaf.RecoveryMemory, 8))
			if len(f.batches) < 2 {
				t.Fatalf("batches = %v: the whole fleet drained at once", f.batches)
			}
			sm := f.router.Map()
			for b, names := range f.batches {
				draining := map[int]bool{}
				for _, name := range names {
					draining[sm.LeafIndex(name)] = true
				}
				for s := 0; s < sm.NumShards; s++ {
					served := false
					for _, o := range sm.Owners("events", s) {
						served = served || !draining[o]
					}
					if !served {
						t.Errorf("batch %d %v drains every owner of shard %d", b, names, s)
					}
				}
			}
			for i, st := range f.router.Status() {
				if st != shard.StatusActive {
					t.Errorf("leaf %d ended the rollover %v", i, st)
				}
			}
		},
	},
	{
		// One corrupted block in the first restarted leaf: it quarantines one
		// table and reports a mixed recovery — degraded, but not a disk
		// fallback, so the guard must not trip.
		name: "mixed recovery does not trip the guard", machines: 2, perMachine: 2,
		cfg: RolloverConfig{BatchFraction: 0.25, UseShm: true, MaxDiskFallback: 0.25},
		sabotage: func(t *testing.T, f *suiteFleet) {
			if f.cluster == nil {
				f.fakes[0].outcome.Recovery = leaf.RecoveryMixed
				return
			}
			// A second table per leaf, so a single corrupt segment degrades
			// a restore to "mixed" rather than all the way to disk.
			for _, n := range f.cluster.Nodes() {
				addNodeRows(t, n, "errors", 50)
			}
			if err := fault.ArmSpec("shm.copy_in=corrupt;count=1"); err != nil {
				t.Fatal(err)
			}
		},
		check: func(t *testing.T, f *suiteFleet, rep *RolloverReport, err error) {
			wantClean(t, rep, err, 4, recoveries(leaf.RecoveryMixed, 1, leaf.RecoveryMemory, 3))
			if c := f.cluster; c != nil {
				for _, rs := range rep.Restarts {
					if rs.Recovery == leaf.RecoveryMixed && c.Node(rs.Leaf).current().Recovery().Quarantined != 1 {
						t.Errorf("mixed restart of leaf %d without exactly one quarantined table", rs.Leaf)
					}
				}
			}
		},
	},
	{
		name: "disk-fallback wave aborts", machines: 4, perMachine: 2,
		cfg:      RolloverConfig{BatchFraction: 0.25, UseShm: true, MaxDiskFallback: 0.25},
		sabotage: everyRestartFallsToDisk,
		check: func(t *testing.T, f *suiteFleet, rep *RolloverReport, err error) {
			if !errors.Is(err, ErrRolloverAborted) {
				t.Fatalf("err = %v, want ErrRolloverAborted", err)
			}
			// The first batch disk-recovers 100% > 25%, so exactly one batch
			// ran; the untouched majority never restarted.
			if !rep.Aborted || rep.Batches != 1 || len(rep.Restarts) != 2 ||
				!reflect.DeepEqual(rep.Recoveries, recoveries(leaf.RecoveryDisk, 2)) {
				t.Errorf("report = %+v", rep)
			}
			if got := f.reg.Counter("rollover.aborts").Value(); got != 1 {
				t.Errorf("rollover.aborts = %d", got)
			}
			if got := f.reg.Counter("rollover.recovery.disk").Value(); got != 2 {
				t.Errorf("rollover.recovery.disk = %d", got)
			}
			found := false
			for _, ev := range f.rec.Events() {
				found = found || (ev.Kind == obs.EventFail && ev.Phase == "rollover.abort")
			}
			if !found {
				t.Error("no rollover.abort event in the flight recorder")
			}
		},
	},
	{
		name: "disk-fallback guard is off by default", machines: 2, perMachine: 2,
		cfg:      RolloverConfig{BatchFraction: 0.25, UseShm: true},
		sabotage: everyRestartFallsToDisk,
		check: func(t *testing.T, f *suiteFleet, rep *RolloverReport, err error) {
			wantClean(t, rep, err, 4, recoveries(leaf.RecoveryDisk, 4))
		},
	},
	{
		// A member whose replacement never serves is left DOWN in the shard
		// map so queries don't route to its corpse, listed in the report, and
		// the rollover goes on: replicas keep its shards.
		name: "unstartable member is quarantined", machines: 3, perMachine: 1, replication: 2, shards: 6,
		cfg: RolloverConfig{BatchFraction: 0.3, UseShm: true},
		sabotage: func(t *testing.T, f *suiteFleet) {
			if f.cluster == nil {
				f.fakes[1].outcome.Err = "replacement never answered"
				return
			}
			// The process died outside the rollover.
			n := f.cluster.Node(1)
			n.mu.Lock()
			n.leaf = nil
			n.mu.Unlock()
		},
		check: func(t *testing.T, f *suiteFleet, rep *RolloverReport, err error) {
			if err != nil {
				t.Fatalf("a quarantine must not fail the rollover: %v", err)
			}
			if !reflect.DeepEqual(rep.Quarantined, []int{1}) || rep.Batches != 3 || rep.Aborted ||
				!reflect.DeepEqual(rep.Recoveries, recoveries(leaf.RecoveryMemory, 2)) {
				t.Errorf("report = %+v", rep)
			}
			if rep.Restarts[1].Err == "" || rep.Restarts[1].Recovery != "" {
				t.Errorf("victim's restart = %+v", rep.Restarts[1])
			}
			want := []shard.Status{shard.StatusActive, shard.StatusDown, shard.StatusActive}
			if got := f.router.Status(); !reflect.DeepEqual(got, want) {
				t.Errorf("statuses = %v, want %v", got, want)
			}
			// The leaf quarantined in batch 1 is still not serving during
			// batch 2: one of three leaves is the most that answered then.
			if got := rep.MinAvailability(); got > 0.34 {
				t.Errorf("min availability = %v with one leaf DOWN and one restarting", got)
			}
		},
	},
	{
		// A slot an earlier rollover quarantined has missed writes since: it
		// is left DOWN, out of every batch, and the dashboard counts it as down
		// from the first batch on.
		name: "a member already DOWN stays out", machines: 3, perMachine: 1, replication: 2, shards: 6,
		cfg: RolloverConfig{BatchFraction: 0.3, UseShm: true},
		sabotage: func(t *testing.T, f *suiteFleet) {
			if err := f.router.SetStatus(1, shard.StatusDown); err != nil {
				t.Fatal(err)
			}
			if f.cluster != nil {
				n := f.cluster.Node(1)
				n.mu.Lock()
				n.leaf = nil
				n.mu.Unlock()
			}
		},
		check: func(t *testing.T, f *suiteFleet, rep *RolloverReport, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if rep.Batches != 2 || len(rep.Restarts) != 2 || rep.Restarts[0].Leaf != 0 || rep.Restarts[1].Leaf != 2 ||
				len(rep.Quarantined) != 0 || !reflect.DeepEqual(rep.Recoveries, recoveries(leaf.RecoveryMemory, 2)) {
				t.Errorf("report = %+v", rep)
			}
			for b, snap := range rep.Timeline {
				if snap.RollingOver != 2 || snap.AvailableFraction > 0.34 {
					t.Errorf("batch %d dashboard = %+v, want the DOWN leaf and the batch's one both down", b, snap)
				}
			}
			want := []shard.Status{shard.StatusActive, shard.StatusDown, shard.StatusActive}
			if got := f.router.Status(); !reflect.DeepEqual(got, want) {
				t.Errorf("statuses = %v, want %v", got, want)
			}
		},
	},
	{
		// Both members of the batch restarted, so both are in the report and
		// the tally when the first one's gap stops the rollover.
		name: "gap budget: the whole batch is tallied", machines: 2, perMachine: 1,
		cfg: RolloverConfig{BatchFraction: 1, UseShm: true, MaxAvailabilityGap: time.Nanosecond},
		check: func(t *testing.T, f *suiteFleet, rep *RolloverReport, err error) {
			if !errors.Is(err, ErrRolloverAborted) {
				t.Fatalf("err = %v, want ErrRolloverAborted", err)
			}
			if !rep.Aborted || rep.Batches != 1 || len(rep.Restarts) != 2 ||
				!reflect.DeepEqual(rep.Recoveries, recoveries(leaf.RecoveryMemory, 2)) {
				t.Errorf("report = %+v", rep)
			}
		},
	},
}

func TestRolloverSuite(t *testing.T) {
	fleets := []struct {
		name  string
		build func(*testing.T, rolloverCase) *suiteFleet
	}{{"fake", buildFakeFleet}, {"in-process", buildNodeFleet}}
	for _, tc := range rolloverCases {
		for _, fl := range fleets {
			tc, fl := tc, fl
			t.Run(tc.name+"/"+fl.name, func(t *testing.T) {
				t.Cleanup(fault.Reset)
				fault.Reset()
				f := fl.build(t, tc)
				f.reg = metrics.NewRegistry()
				var err error
				f.rec, err = obs.OpenFlightRecorder(0, obs.RecorderOptions{Dir: t.TempDir(), Namespace: "suite"})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { f.rec.Close() })
				if tc.sabotage != nil {
					tc.sabotage(t, f)
				}
				cfg := tc.cfg
				cfg.Obs = obs.New(f.reg, f.rec)
				cfg.OnBatch = func(b int, draining []string, snap Snapshot) {
					if b != len(f.batches) || snap.RollingOver < len(draining) {
						t.Errorf("OnBatch(%d, %v, %+v) after %d batches", b, draining, snap, len(f.batches))
					}
					f.batches = append(f.batches, draining)
				}
				rep, err := f.run(cfg)
				fault.Reset()
				tc.check(t, f, rep, err)
				f.intact(t)
			})
		}
	}
}

// TestRolloverCountsEveryRecoveryPath: the tally and the rollover.recovery.*
// counters are keyed by the path a restart reports, so none of the six can go
// uncounted (internal/metrics/names_test.go pins the six names).
func TestRolloverCountsEveryRecoveryPath(t *testing.T) {
	f := buildFakeFleet(t, rolloverCase{machines: len(recoveryPaths), perMachine: 1})
	for i, p := range recoveryPaths {
		f.fakes[i].outcome.Recovery = p
	}
	reg := metrics.NewRegistry()
	rep, err := f.run(RolloverConfig{BatchFraction: 0.5, UseShm: true, Obs: obs.New(reg, nil)})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"none", "memory", "shm_view", "mixed", "wal", "disk"} {
		if got := reg.Counter("rollover.recovery." + name).Value(); got != 1 {
			t.Errorf("rollover.recovery.%s = %d, want 1", name, got)
		}
	}
	for _, p := range recoveryPaths {
		if rep.Recoveries[p] != 1 {
			t.Errorf("recoveries[%s] = %d, want 1", p, rep.Recoveries[p])
		}
	}
}

// TestKilledLeafRestartsFromDisk: a leaf that misses KillTimeout the way a
// real one does — its copy-out is still running — is marked killed, and its
// replacement does not trust the backup it went on to finish (§4.3).
func TestKilledLeafRestartsFromDisk(t *testing.T) {
	t.Cleanup(fault.Reset)
	fault.Reset()
	c := newCluster(t, 1, 2)
	loadCluster(t, c, 500)
	before, _ := totalCount(t, c)
	if err := fault.ArmSpec("shm.copy_out=delay:50ms"); err != nil {
		t.Fatal(err)
	}
	rs := c.Node(0).Restart(RolloverConfig{UseShm: true, TargetVersion: 2, KillTimeout: time.Millisecond})
	fault.Reset()
	if rs.Err != "" {
		t.Fatal(rs.Err)
	}
	if !rs.Killed {
		t.Error("not marked killed")
	}
	if rs.Recovery == leaf.RecoveryMemory || rs.Recovery == leaf.RecoveryShmView {
		t.Errorf("killed leaf recovered from shared memory (%s)", rs.Recovery)
	}
	after, _ := totalCount(t, c)
	if after != before {
		t.Errorf("count %v -> %v", before, after)
	}
}
