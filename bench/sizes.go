package main

import "time"

// Every size, count and cadence of the benchmark lives in this file. They
// are fixed constants: the same on every commit, so that a number measured on
// one commit can be compared with the same number on another. The only inputs
// are -seed (which rows and queries are generated), -seconds (how long the
// timed loops run and how many restart cycles fit) and the test-only scale
// divisor.

const (
	// defaultSeconds is the nominal measured length of one workload; it is
	// BENCHMARK.json's run_seconds.
	defaultSeconds = 20
	// epoch is the event time of the first generated row of every table.
	epoch int64 = 1_700_000_000
	// bucketSeconds is the oracle's time resolution; every window query is
	// aligned to it so answers can be checked exactly.
	bucketSeconds int64 = 64
	// loadBatchRows is the batch size of set-up loads and restart-cycle
	// ingest.
	loadBatchRows = 1000
	// windowFraction: a window query covers 1/windowFraction of the loaded
	// time range.
	windowFraction = 64
	// newestWindowSeconds is the event-time span of the window the reader and
	// the probers query: the newest rows, a few thousand of them.
	newestWindowSeconds = 16 * bucketSeconds
	// numHosts mirrors the generator's host cardinality.
	numHosts = 200
	// backlogFlushes: rows of this many tailer flush intervals may still be
	// unplaced when the open loop ends before they count as a backlog.
	backlogFlushes = 4
	// The dashboard mix in percent: window, filter, and scan the remainder.
	mixWindowPct = 60
	mixFilterPct = 25
	// ingestOpenShare is phase B's share of -seconds in ingest_fresh, and
	// ingestFlushInterval the tailer's flush interval there.
	ingestOpenShare     = 0.5
	ingestFlushInterval = 25 * time.Millisecond
	// probeInterval is the background prober's open-loop period in the
	// restart workloads.
	probeInterval = 25 * time.Millisecond
	// setupRounds is the number of equal, separately timed rounds a set-up
	// loads its rows in.
	setupRounds = 5
	// promoteDeadline is how long an instant-on restore may take to promote
	// every block before the cycle counts as failed.
	promoteDeadline = 30 * time.Second
	// crashDiskCycles is the fixed number of WAL-less cycles of restart_crash.
	crashDiskCycles = 5
)

// The leaf configuration shared by every leaf of every workload (the stated
// flush policy is the 2 ms group commit).
const (
	walSyncInterval  = 2 * time.Millisecond
	decodeCacheBytes = 32 << 20
	memoryBudget     = 8 << 30
	// shmMinFreeBytes is the room /dev/shm must have to be used: the 4M-row
	// leaf's image is about 40 MB and two incarnations' segments can coexist
	// while an instant-on view drains.
	shmMinFreeBytes = 512 << 20
)

// The speedometer (speed.go): kernel size, sampling period and the kernel
// time that counts as speed 1, about what this host takes on a quiet minute.
const (
	speedCRCBytes = 1 << 20
	speedKeys     = 200_000
	speedGroups   = 1 << 19
	speedInterval = 50 * time.Millisecond
	speedNominal  = 1800 * time.Microsecond
)

// Table names and their share of a restart workload's rows, in percent.
const (
	tableLogs   = "service_logs"
	tableErrors = "error_events"
	tableAds    = "ads_revenue"
)

var tableNames = []string{tableLogs, tableErrors, tableAds}

var restartTableShare = map[string]int{tableLogs: 50, tableErrors: 25, tableAds: 25}

// sizes are the per-workload constants. full() returns the benchmark's
// values; scaled(n) divides row counts by n for the smoke test.
type sizes struct {
	// dash_read: rows of service_logs per leaf.
	DashRowsPerLeaf int

	// ingest_fresh: phase A rows per second of -seconds (closed loop, so this
	// is a row count, not a rate), rows appended per DrainOnce, phase B's
	// open-loop rate and burst size, and the snapshot/sync cadence in acked
	// rows.
	IngestSatRowsPerSecond int
	IngestAppendChunk      int
	IngestOpenRowsPerSec   int
	IngestBurstRows        int
	IngestSnapshotEvery    int

	// restart_shm: rows on the cycled leaf and on the bystander, fresh rows
	// per cycle, cycles per second of -seconds.
	ShmLeaf0Rows       int
	ShmLeaf1Rows       int
	ShmCycleRows       int
	ShmCyclesPerSecond float64

	// restart_crash: rows on the crashed leaf, the bystander and the
	// WAL-less scratch leaf; rows per cycle and the share ingested before
	// the SnapshotPass; WAL cycles per second of -seconds; the rows each
	// WAL-less cycle adds.
	CrashLeaf0Rows       int
	CrashLeaf1Rows       int
	CrashScratchRows     int
	CrashCycleRows       int
	CrashSnapshotAfter   int
	CrashCyclesPerSecond float64
	CrashDiskCycleRows   int

	// LayerProbeReps is how often each per-layer probe repeats in a traced
	// run; LayerProbeRows is the row count of the ingest-layer probes.
	LayerProbeReps int
	LayerProbeRows int
}

func full() sizes {
	return sizes{
		DashRowsPerLeaf: 1_000_000,

		IngestSatRowsPerSecond: 7500,
		IngestAppendChunk:      5000,
		IngestOpenRowsPerSec:   5_000,
		IngestBurstRows:        100,
		IngestSnapshotEvery:    50_000,

		ShmLeaf0Rows:       4_000_000,
		ShmLeaf1Rows:       500_000,
		ShmCycleRows:       50_000,
		ShmCyclesPerSecond: 1.5,

		CrashLeaf0Rows:       1_000_000,
		CrashLeaf1Rows:       250_000,
		CrashScratchRows:     500_000,
		CrashCycleRows:       100_000,
		CrashSnapshotAfter:   50_000,
		CrashCyclesPerSecond: 0.67,
		CrashDiskCycleRows:   10_000,

		LayerProbeReps: 9,
		LayerProbeRows: 100_000,
	}
}

// scaled divides every row count, and the open-loop rate, by n (the smoke
// test runs at 1/50).
func (s sizes) scaled(n int) sizes {
	if n <= 1 {
		return s
	}
	for _, p := range []*int{
		&s.DashRowsPerLeaf, &s.IngestSatRowsPerSecond, &s.IngestSnapshotEvery,
		&s.ShmLeaf0Rows, &s.ShmLeaf1Rows, &s.ShmCycleRows,
		&s.CrashLeaf0Rows, &s.CrashLeaf1Rows, &s.CrashScratchRows,
		&s.CrashCycleRows, &s.CrashSnapshotAfter, &s.CrashDiskCycleRows,
		&s.LayerProbeRows,
	} {
		*p = max(*p/n, loadBatchRows)
	}
	s.IngestAppendChunk = max(s.IngestAppendChunk/n, s.IngestBurstRows)
	s.IngestOpenRowsPerSec = max(s.IngestOpenRowsPerSec/n, 10*s.IngestBurstRows)
	s.LayerProbeReps = 3
	return s
}
