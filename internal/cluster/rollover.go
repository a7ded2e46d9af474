package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"scuba/internal/leaf"
	"scuba/internal/metrics"
	"scuba/internal/obs"
	"scuba/internal/shard"
)

// RolloverConfig drives a system-wide software upgrade (§4.5) of either
// fleet — the in-process Cluster or the scubad subprocesses of a ProcCluster
// — and a single member's restart. The zero value restarts 2% of leaves per
// batch, one per machine, through the disk-recovery baseline.
type RolloverConfig struct {
	// BatchFraction is the share of leaves restarted at once (default 0.02:
	// the paper restarts 2% at a time to keep 98% of data available).
	BatchFraction float64
	// MaxPerMachine bounds concurrent restarts on one machine (default 1:
	// each restarting leaf gets its machine's full memory or disk bandwidth,
	// §2, §4.2, §6).
	MaxPerMachine int
	// UseShm selects the fast path; false is the disk-recovery baseline.
	UseShm bool
	// TargetVersion is the software version label the in-process fleet stamps
	// on restarted nodes (0 = one past the newest running version). A scubad
	// fleet's version is its binary, so it ignores the label.
	TargetVersion int
	// KillTimeout bounds each leaf's shutdown. The rollover script waits for
	// the leaf process to die and kills it after 3 minutes (§4.3, the
	// default); a killed leaf's shared memory backup is discarded and its
	// replacement restarts from disk.
	KillTimeout time.Duration
	// MaxDiskFallback aborts the rollover when more than this fraction of
	// restarted leaves fall back to full disk recovery or come back degraded
	// (rows dropped, RolloverReport.Degraded) (0 disables the guard). A
	// healthy shm rollover does either almost never; a wave of them means the
	// new build can't read the old segments or images (a layout-version
	// mistake, a corrupting bug) and finishing the rollover would pay hours
	// of disk recovery or lose data cluster-wide — stopping early mirrors the
	// canary's intent (§4.5).
	MaxDiskFallback float64
	// MaxAvailabilityGap, when positive, aborts the rollover if any restarted
	// leaf takes longer than this from the start of its replacement to
	// serving queries. This is the instant-on gate: a leaf that blocks
	// availability on its full copy-in blows the budget.
	MaxAvailabilityGap time.Duration
	// Tables lists the tables whose shard coverage each batch must preserve:
	// the batch picker never drains every owner of any shard of a listed
	// table at once, so queries on those tables keep full coverage through
	// the rollover. A leaf that conflicts with the current batch is deferred
	// to a later one. Empty = no conflict filtering; the coverage floor is
	// then 1 - BatchFraction instead of 1.
	Tables []string
	// Obs, when non-nil, receives the rollover's instrumentation: in its
	// registry the rollover.batch timer, the rollover.restarts and
	// rollover.aborts counters, one rollover.recovery.<path> counter per
	// recovery path taken and the rollover.min_availability_bp gauge (basis
	// points of leaves serving at the worst moment so far); in its flight
	// recorder the abort decision, so a post-mortem shows why the rollover
	// stopped.
	Obs *obs.Observer
	// OnBatch, if set, is called once per batch with the routing names of its
	// leaves and the dashboard snapshot (Figure 8), after they are flipped to
	// DRAINING and before any shutdown — the hook chaos drills use to kill a
	// leaf mid-batch.
	OnBatch func(batch int, draining []string, snap Snapshot)
}

func (cfg RolloverConfig) withDefaults() RolloverConfig {
	if cfg.BatchFraction <= 0 {
		cfg.BatchFraction = 0.02
	}
	if cfg.MaxPerMachine <= 0 {
		cfg.MaxPerMachine = 1
	}
	if cfg.KillTimeout <= 0 {
		cfg.KillTimeout = 3 * time.Minute
	}
	return cfg
}

// member is one leaf slot as the rollover driver sees it. The two fleets
// differ only here: how a slot's status reaches the shard map, and what it
// takes to replace its process. Tests substitute a fake.
type member interface {
	// ident is the slot's leaf ID, its machine, and its name in the shard
	// map.
	ident() (id, machine int, name string)
	// setStatus flips the slot in the shard map.
	setStatus(st shard.Status) error
	// restart shuts the slot's process down (killing it past
	// cfg.KillTimeout), starts the replacement and returns once that serves,
	// noting in rs what happened on the way. An error means the slot has no
	// process the rollover can vouch for.
	restart(cfg RolloverConfig, rs *Restart) error
}

// Restart records one leaf's restart.
type Restart struct {
	Leaf int
	// Name is the leaf's routing name in the shard map.
	Name string
	// Killed: the shutdown missed KillTimeout; the shm backup was discarded.
	Killed bool
	// Crashed: the shutdown failed because the process was already dead (or
	// died mid-drain) — the replacement recovers from disk.
	Crashed bool
	// Recovery is the path the replacement came up by.
	Recovery leaf.RecoveryPath
	// RowsDropped is what the replacement's tables report they lost
	// (leaf.TableRecovery.RowsDropped): images it could not decode, damaged
	// blocks the store had no image of.
	RowsDropped int64
	// Gap is the availability gap: replacement start to serving queries.
	Gap time.Duration
	// Duration is the whole restart, shutdown included.
	Duration time.Duration
	// Err is set when the slot was left without a serving process; the
	// rollover quarantines it DOWN.
	Err string
}

// Snapshot is one dashboard sample (Figure 8): the fleet while a batch is in
// flight, as the driver's own bookkeeping has it — leaves still pending are
// old, the batch and any leaf DOWN are rolling over, the rest are done.
type Snapshot struct {
	OldVersion  int
	RollingOver int
	NewVersion  int
	// AvailableFraction is the share of leaves answering queries; with data
	// spread evenly it is the share of data available (98% during a 2%
	// rollover).
	AvailableFraction float64
}

// String renders a snapshot as one dashboard line.
func (s Snapshot) String() string {
	return fmt.Sprintf("old=%d rolling=%d new=%d available=%.1f%%",
		s.OldVersion, s.RollingOver, s.NewVersion, 100*s.AvailableFraction)
}

// RolloverReport summarizes a rollover.
type RolloverReport struct {
	Duration time.Duration
	Batches  int
	// Restarts holds every restart attempted, sorted by leaf.
	Restarts []Restart
	// Recoveries counts the successful restarts by the path they took.
	Recoveries map[leaf.RecoveryPath]int
	// Quarantined leaves were left DOWN: their replacement never served, so
	// their shards keep serving from replicas.
	Quarantined []int
	// Degraded leaves served again but dropped rows doing it, whatever
	// path they came up by.
	Degraded []int
	// MaxGap is the largest availability gap any successful restart paid.
	MaxGap time.Duration
	// Timeline holds each batch's dashboard sample.
	Timeline []Snapshot
	// Aborted is set when a guard (MaxDiskFallback, MaxAvailabilityGap)
	// stopped the rollover.
	Aborted bool
}

// MinAvailability is the lowest share of leaves serving at any point of the
// rollover (1 before the first batch).
func (r *RolloverReport) MinAvailability() float64 {
	low := 1.0
	for _, snap := range r.Timeline {
		low = math.Min(low, snap.AvailableFraction)
	}
	return low
}

// recoveryPaths lists every path a restart can report, fastest first: the
// order summaries print in and the columns __system.rollover carries.
var recoveryPaths = []leaf.RecoveryPath{leaf.RecoveryShmView, leaf.RecoveryMemory,
	leaf.RecoveryMixed, leaf.RecoveryWAL, leaf.RecoveryDisk, leaf.RecoveryNone}

// String renders the report as one summary line.
func (r *RolloverReport) String() string {
	var paths []string
	for _, p := range recoveryPaths {
		if n := r.Recoveries[p]; n > 0 {
			paths = append(paths, fmt.Sprintf("%d %s", n, p))
		}
	}
	s := fmt.Sprintf("%v, %d batches, min availability %.1f%%, max gap %v, recoveries: %s, %d quarantined, %d degraded",
		r.Duration.Round(time.Millisecond), r.Batches, 100*r.MinAvailability(),
		r.MaxGap.Round(time.Millisecond), strings.Join(paths, " / "), len(r.Quarantined), len(r.Degraded))
	if r.Aborted {
		s += ", ABORTED"
	}
	return s
}

// tally adds one finished batch to the report: a restart that left its slot
// without a serving process is a quarantine, every other one counts under
// the path it recovered by, and as degraded too if it dropped rows.
func (r *RolloverReport) tally(batch []Restart, reg *metrics.Registry) {
	for _, rs := range batch {
		r.Restarts = append(r.Restarts, rs)
		if rs.Err != "" {
			r.Quarantined = append(r.Quarantined, rs.Leaf)
			continue
		}
		r.Recoveries[rs.Recovery]++
		if rs.RowsDropped > 0 {
			r.Degraded = append(r.Degraded, rs.Leaf)
		}
		reg.Counter("rollover.recovery." + metrics.CanonicalName(string(rs.Recovery))).Add(1)
		if rs.Gap > r.MaxGap {
			r.MaxGap = rs.Gap
		}
	}
	r.Batches++
}

// breached applies the two guards to a report whose latest batch has been
// tallied, and says why the rollover must stop ("" = carry on).
func (cfg RolloverConfig) breached(r *RolloverReport, batch []Restart) string {
	if restarted := len(r.Restarts) - len(r.Quarantined); cfg.MaxDiskFallback > 0 && restarted > 0 {
		disk := r.Recoveries[leaf.RecoveryDisk]
		for _, rs := range r.Restarts {
			if rs.Err == "" && rs.RowsDropped > 0 && rs.Recovery != leaf.RecoveryDisk {
				disk++
			}
		}
		if frac := float64(disk) / float64(restarted); frac > cfg.MaxDiskFallback {
			return fmt.Sprintf("%d of %d restarted leaves (%.0f%%) fell back to disk recovery or dropped rows, limit %.0f%%",
				disk, restarted, frac*100, cfg.MaxDiskFallback*100)
		}
	}
	if cfg.MaxAvailabilityGap > 0 {
		for _, rs := range batch {
			if rs.Err == "" && rs.Gap > cfg.MaxAvailabilityGap {
				return fmt.Sprintf("leaf %d availability gap %v exceeds budget %v",
					rs.Leaf, rs.Gap, cfg.MaxAvailabilityGap)
			}
		}
	}
	return ""
}

// rowsDropped sums the rows a replacement's tables report lost.
func rowsDropped(tables []leaf.TableRecovery) (n int64) {
	for _, tr := range tables {
		n += tr.RowsDropped
	}
	return n
}

// ErrRolloverAborted is returned (wrapped) when a guard stops a rollover.
var ErrRolloverAborted = errors.New("cluster: rollover aborted")

// rollover upgrades every member of fleet, BatchFraction at a time, at most
// MaxPerMachine per machine within a batch: flip the batch to DRAINING in the
// shard map (queries move to replicas), restart its members concurrently,
// put each back ACTIVE — or DOWN, if its replacement never served: the
// rollover goes on without it — then tally the batch and check the guards.
// router (nil outside shard mode) is read only to keep cfg.Tables covered.
func rollover(fleet []member, router *shard.Router, cfg RolloverConfig) (*RolloverReport, error) {
	cfg = cfg.withDefaults()
	batchSize := int(math.Ceil(cfg.BatchFraction * float64(len(fleet))))
	if batchSize < 1 {
		batchSize = 1
	}
	reg := cfg.Obs.Registry()
	if reg == nil {
		reg = metrics.NewRegistry() // nobody reads it; the code below needs no nil checks
	}

	begin := time.Now()
	report := &RolloverReport{Recoveries: make(map[leaf.RecoveryPath]int)}
	defer func() {
		report.Duration = time.Since(begin)
		sort.Slice(report.Restarts, func(i, j int) bool { return report.Restarts[i].Leaf < report.Restarts[j].Leaf })
	}()
	// A member already DOWN in the shard map (an earlier rollover quarantined
	// it) has missed every write since: restarted ACTIVE it would serve stale
	// data, so it stays out of every batch and counts as down throughout.
	var pending []member
	for _, m := range fleet {
		if !isDown(router, m) {
			pending = append(pending, m)
		}
	}
	lost := len(fleet) - len(pending)
	for batchNum := 0; len(pending) > 0; batchNum++ {
		batchStart := time.Now()
		var batch []member
		batch, pending = pickBatch(pending, batchSize, cfg.MaxPerMachine, router, cfg.Tables)

		// Drain the whole batch in the shard map before any shutdown, so no
		// new query routes to a leaf about to exit.
		draining := make([]string, len(batch))
		for i, m := range batch {
			_, _, draining[i] = m.ident()
			if err := m.setStatus(shard.StatusDraining); err != nil {
				return report, fmt.Errorf("cluster: draining %s: %w", draining[i], err)
			}
		}
		down := len(batch) + len(report.Quarantined) + lost
		snap := Snapshot{
			OldVersion:        len(pending),
			RollingOver:       down,
			NewVersion:        len(fleet) - len(pending) - down,
			AvailableFraction: 1 - float64(down)/float64(len(fleet)),
		}
		report.Timeline = append(report.Timeline, snap)
		if cfg.OnBatch != nil {
			cfg.OnBatch(batchNum, draining, snap)
		}

		restarts := make([]Restart, len(batch))
		var wg sync.WaitGroup
		for i, m := range batch {
			wg.Add(1)
			go func(i int, m member) {
				defer wg.Done()
				restarts[i] = restartDrained(m, cfg)
			}(i, m)
		}
		wg.Wait()

		report.tally(restarts, reg)
		reg.Timer("rollover.batch").Observe(time.Since(batchStart))
		reg.Counter("rollover.restarts").Add(int64(len(batch)))
		reg.Gauge("rollover.min_availability_bp").Set(int64(report.MinAvailability() * 10000))
		if why := cfg.breached(report, restarts); why != "" {
			report.Aborted = true
			msg := fmt.Sprintf("%s: stopping after batch %d with %d leaves pending", why, batchNum, len(pending))
			cfg.Obs.Event(obs.EventFail, "rollover.abort", msg)
			reg.Counter("rollover.aborts").Add(1)
			return report, fmt.Errorf("%w: %s", ErrRolloverAborted, msg)
		}
	}
	return report, nil
}

// isDown says whether the shard map (nil = none) has m's slot DOWN.
func isDown(r *shard.Router, m member) bool {
	if r == nil {
		return false
	}
	_, _, name := m.ident()
	i := r.Map().LeafIndex(name)
	return i >= 0 && r.Status()[i] == shard.StatusDown
}

// restartDrained replaces the process of a member already DRAINING and puts
// the slot back in the shard map: ACTIVE the moment its replacement serves,
// DOWN — so no query routes to its corpse — when there is none.
func restartDrained(m member, cfg RolloverConfig) Restart {
	begin := time.Now()
	id, _, name := m.ident()
	rs := Restart{Leaf: id, Name: name}
	err := m.restart(cfg, &rs)
	if err == nil {
		err = m.setStatus(shard.StatusActive)
	}
	if err != nil {
		rs.Err = err.Error()
		m.setStatus(shard.StatusDown) //nolint:errcheck // best effort: rs.Err already says why the slot is lost
	}
	rs.Duration = time.Since(begin)
	return rs
}

// restartOne is a rollover of a single member: the canary's deploy and
// revert, and Node.Restart.
func restartOne(m member, cfg RolloverConfig) Restart {
	if err := m.setStatus(shard.StatusDraining); err != nil {
		id, _, name := m.ident()
		return Restart{Leaf: id, Name: name, Err: err.Error()}
	}
	return restartDrained(m, cfg.withDefaults())
}

// pickBatch selects up to batchSize members, at most perMachine per machine,
// preferring to spread across machines so each restarting leaf gets its
// whole machine's bandwidth (§2: "16 leaf servers on 16 machines"). A member
// that shardConflictVeto rejects alongside the ones already chosen is
// deferred to a later batch, after the current batch's leaves are ACTIVE
// again.
func pickBatch(pending []member, batchSize, perMachine int, router *shard.Router, tables []string) (batch, rest []member) {
	used := make(map[int]int)
	for _, m := range pending {
		_, machine, _ := m.ident()
		if len(batch) < batchSize && used[machine] < perMachine && !shardConflictVeto(router, tables, batch, m) {
			batch = append(batch, m)
			used[machine]++
		} else {
			rest = append(rest, m)
		}
	}
	if len(batch) == 0 && len(pending) > 0 {
		// Every pending member conflicts on its own (R=1, or replicas already
		// down): restart one anyway so the rollover terminates — coverage
		// dips to the replica-less floor for that batch.
		return pending[:1:1], append([]member(nil), pending[1:]...)
	}
	return batch, rest
}

// shardConflictVeto says whether draining m alongside the chosen batch would
// leave some shard of a listed table with no ACTIVE owner, by the routing
// queries get (nil router = no shard map, nothing to veto).
func shardConflictVeto(r *shard.Router, tables []string, chosen []member, m member) bool {
	if r == nil {
		return false
	}
	sm, status := r.Map(), r.Status()
	for _, b := range append(chosen[:len(chosen):len(chosen)], m) {
		_, _, name := b.ident()
		if i := sm.LeafIndex(name); i >= 0 {
			status[i] = shard.StatusDraining
		}
	}
	for _, tbl := range tables {
		if len(sm.Assign(tbl, status).Unserved) > 0 {
			return true
		}
	}
	return false
}
