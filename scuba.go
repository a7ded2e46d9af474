// Package scuba is a Go reproduction of the system described in "Fast
// Database Restarts at Facebook" (SIGMOD 2014): Scuba, a distributed
// in-memory column-store analytics database, together with the paper's
// contribution — restarting a database server in minutes instead of hours
// by staging its in-memory state through shared memory across planned
// process restarts.
//
// The package is a facade over the implementation packages:
//
//   - Leaf servers (ingest, query, expire, restart): NewLeaf / Leaf.
//   - Shared memory restart: Leaf.Shutdown + a fresh Leaf.Start recover the
//     full dataset at memory speed; crashes fall back to the disk backup.
//   - Clusters (machines x 8 leaves) with tailer placement and aggregator
//     fan-out, in process (NewCluster) or as scubad subprocesses
//     (StartProcCluster); both run the one 2%-at-a-time rollover driver:
//     Cluster.Rollover / ProcCluster.Rollover, RolloverConfig, RolloverReport.
//   - The query model: Query, Filter, Aggregation, Result.
//   - A discrete-event simulator calibrated to the paper's production
//     numbers: SimParams / DefaultSimParams.
//
// Quick start (see examples/quickstart for the runnable version):
//
//	l, _ := scuba.NewLeaf(scuba.LeafConfig{ID: 0, DiskRoot: "/var/lib/scuba"})
//	_ = l.Start()
//	_ = l.AddRows("events", []scuba.Row{{
//		Time: time.Now().Unix(),
//		Cols: map[string]scuba.Value{"service": scuba.String("web")},
//	}})
//	res, _ := l.Query(&scuba.Query{
//		Table: "events", From: 0, To: 1 << 40,
//		Aggregations: []scuba.Aggregation{{Op: scuba.AggCount}},
//	})
//
// Upgrading without losing memory state:
//
//	info, _ := l.Shutdown() // copy to shared memory, set valid bit, exit
//	// ... exec the new binary; in the new process:
//	l2, _ := scuba.NewLeaf(sameConfig)
//	_ = l2.Start() // restores from shared memory in memory-copy time
package scuba

import (
	"scuba/internal/aggregator"
	"scuba/internal/cluster"
	"scuba/internal/fault"
	"scuba/internal/leaf"
	"scuba/internal/metrics"
	"scuba/internal/obs"
	"scuba/internal/profile"
	"scuba/internal/query"
	"scuba/internal/rowblock"
	"scuba/internal/scribe"
	"scuba/internal/shard"
	"scuba/internal/shm"
	"scuba/internal/sim"
	"scuba/internal/table"
	"scuba/internal/tailer"
	"scuba/internal/wire"
	"scuba/internal/workload"
)

// Data model.
type (
	// Row is one ingested event: a unix timestamp plus named columns.
	Row = rowblock.Row
	// Value is one cell of a row.
	Value = rowblock.Value
	// Schema describes one row block's columns.
	Schema = rowblock.Schema
	// Field is one schema entry.
	Field = rowblock.Field
)

// Typed cell constructors.
var (
	Int64   = rowblock.Int64Value
	Float64 = rowblock.Float64Value
	String  = rowblock.StringValue
	Set     = rowblock.SetValue
)

// Leaf servers.
type (
	// Leaf is one Scuba leaf server.
	Leaf = leaf.Leaf
	// LeafConfig configures a leaf.
	LeafConfig = leaf.Config
	// LeafState is the Figure 5 state machine position.
	LeafState = leaf.State
	// LeafStats summarizes a leaf for placement and dashboards.
	LeafStats = leaf.Stats
	// RecoveryInfo reports how a leaf came up.
	RecoveryInfo = leaf.RecoveryInfo

	RecoveryPath = leaf.RecoveryPath
	// ShutdownInfo reports what a clean shutdown did.
	ShutdownInfo = leaf.ShutdownInfo
	// TableCopyStat is one table's share of a restart half: a roll-up of
	// its restart spans.
	TableCopyStat = leaf.TableCopyStat
	// TableRecovery is one table's recovery path within a mixed restore.
	TableRecovery = leaf.TableRecovery
	// ShmOptions configures the shared memory directory and namespace.
	ShmOptions = shm.Options
	// TableOptions sets per-table retention.
	TableOptions = table.Options
)

// NewLeaf creates a leaf server in INIT; call Start to recover and serve.
func NewLeaf(cfg LeafConfig) (*Leaf, error) { return leaf.New(cfg) }

// Recovery paths.
const (
	RecoveryNone   = leaf.RecoveryNone
	RecoveryMemory = leaf.RecoveryMemory
	RecoveryDisk   = leaf.RecoveryDisk
	// RecoveryMixed: the shm restore succeeded for most tables but one or
	// more corrupt segments were quarantined and reloaded from disk.
	RecoveryMixed = leaf.RecoveryMixed
	// RecoveryShmView: instant-on restore — the leaf serves zero-copy from
	// read-only shm mappings while background promotion copies blocks
	// heap-side.
	RecoveryShmView = leaf.RecoveryShmView
	// RecoveryWAL: crash recovery via the store's block images plus
	// write-ahead-log tail replay — crash-path parity with the shm restart.
	RecoveryWAL = leaf.RecoveryWAL
)

// Queries.
type (
	// Query is an aggregation query with a required time range.
	Query = query.Query
	// Filter is one column predicate.
	Filter = query.Filter
	// Aggregation names one output: operator over column.
	Aggregation = query.Aggregation
	// Order overrides the default result ordering.
	Order = query.Order
	// Result is a (possibly partial) mergeable query result.
	Result = query.Result
	// ResultRow is one finalized output row.
	ResultRow = query.Row
)

// Aggregation operators.
const (
	AggCount = query.AggCount
	AggSum   = query.AggSum
	AggMin   = query.AggMin
	AggMax   = query.AggMax
	AggAvg   = query.AggAvg
	AggP50   = query.AggP50
	AggP90   = query.AggP90
	AggP99   = query.AggP99
	// AggCountDistinct counts distinct values of a column exactly.
	AggCountDistinct = query.AggCountDistinct
)

// Filter operators.
const (
	OpEq       = query.OpEq
	OpNe       = query.OpNe
	OpLt       = query.OpLt
	OpLe       = query.OpLe
	OpGt       = query.OpGt
	OpGe       = query.OpGe
	OpContains = query.OpContains
)

// FormatResult renders finalized result rows as an aligned text table.
var FormatResult = query.Format

// Clusters.
type (
	// Cluster is machines x leaves with rollover orchestration.
	Cluster = cluster.Cluster
	// ClusterConfig describes a cluster.
	ClusterConfig = cluster.Config
	// ClusterNode is one leaf slot.
	ClusterNode = cluster.Node
	// RolloverConfig drives an upgrade of either kind of cluster, and a
	// single leaf's restart.
	RolloverConfig = cluster.RolloverConfig
	// RolloverReport summarizes one: restarts, recoveries by path,
	// quarantined leaves, the Figure 8 timeline.
	RolloverReport = cluster.RolloverReport
	// Restart records one leaf's restart.
	Restart = cluster.Restart
	// ClusterSnapshot is one Figure 8 dashboard sample.
	ClusterSnapshot = cluster.Snapshot
	// Canary is an experimental deployment on a handful of leaves (§6),
	// revertible through shared memory.
	Canary = cluster.Canary
	// CanaryConfig selects the canaried nodes and version.
	CanaryConfig = cluster.CanaryConfig
)

// NewCluster creates and starts a cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// ErrRolloverAborted is returned (wrapped) when a RolloverConfig guard stops
// a rollover: too many restarted leaves fell back to disk (MaxDiskFallback),
// or one took too long to serve again (MaxAvailabilityGap).
var ErrRolloverAborted = cluster.ErrRolloverAborted

// Sharding: a rendezvous-hashed shard map (R owners per shard, replicas on
// distinct machines) routes queries to only the leaves owning a table's
// shards, tailers dual-write each batch to every owner, and a rollover
// flips draining leaves out of the map so their shards serve from replicas.
type (
	// ShardMap assigns each (table, shard) to R leaves.
	ShardMap = shard.Map
	// ShardLeaf is one routable leaf (name + machine) in a shard map.
	ShardLeaf = shard.Leaf
	// ShardRouter is a shard map plus live per-leaf statuses.
	ShardRouter = shard.Router
	// ShardStatus is a leaf's routing state (active/draining/down).
	ShardStatus = shard.Status
	// ShardedPlacer dual-writes each batch to every owner of its shard.
	ShardedPlacer = tailer.ShardedPlacer
	// ShardedPlacerStats counts batches, copies, and missed replicas.
	ShardedPlacerStats = tailer.ShardedPlacerStats
)

// Shard routing statuses.
const (
	ShardActive   = shard.StatusActive
	ShardDraining = shard.StatusDraining
	ShardDown     = shard.StatusDown
)

var (
	// NewShardMap builds a rendezvous-hashed map over the leaves.
	NewShardMap = shard.NewMap
	// NewShardRouter wraps a map with live statuses.
	NewShardRouter = shard.NewRouter
	// DecodeShardMap decodes a map fetched over the wire (Client.ShardMap).
	DecodeShardMap = shard.Decode
	// PhysicalTable names shard s of a logical table on a leaf ("T@s").
	PhysicalTable = shard.PhysicalTable
	// NewShardedPlacer builds a dual-writing placer over targets.
	NewShardedPlacer = tailer.NewShardedPlacer
	// ShardRouting turns on shard routing for an aggregator over its leaf
	// addresses; see wire.ShardRouting.
	ShardRouting = wire.ShardRouting
)

// Subprocess clusters: real scubad OS processes restarted the way the
// production rollover script works — shutdown-to-shm RPC, process-exit
// waits with kill -9 timeouts, /debug/recovery polling, and shard-map flips
// through the aggregator's admin RPCs — by the same rollover driver as the
// in-process Cluster (ProcCluster.Rollover), plus a live availability probe.
type (
	// ProcCluster is a cluster of scubad subprocesses with one
	// shard-routing aggregator server over them.
	ProcCluster = cluster.ProcCluster
	// ProcConfig describes a subprocess cluster.
	ProcConfig = cluster.ProcConfig
	// ProcLeaf is one subprocess leaf slot (the identity outlives the
	// process).
	ProcLeaf = cluster.ProcLeaf
	// AvailabilityProbe measures live coverage and latency during a
	// rollover.
	AvailabilityProbe = cluster.AvailabilityProbe
	// ProbeConfig sets the probe's query, cadence, and correctness check.
	ProbeConfig = cluster.ProbeConfig
	// AvailabilityReport is the probe's timeline plus summary statistics.
	AvailabilityReport = cluster.AvailabilityReport
	// AvailabilityPoint is one probe sample.
	AvailabilityPoint = cluster.AvailabilityPoint
)

var (
	// BuildScubad compiles the scubad daemon for StartProcCluster.
	BuildScubad = cluster.BuildScubad
	// BuildScubadRace compiles it with the race detector, for drills that
	// should instrument the daemon's own restart concurrency.
	BuildScubadRace = cluster.BuildScubadRace
	// StartProcCluster boots the subprocess leaves and their aggregator.
	StartProcCluster = cluster.StartProcCluster
	// StartAvailabilityProbe begins a continuous query probe.
	StartAvailabilityProbe = cluster.StartProbe
)

// Fault injection (chaos testing): deterministic fault points threaded
// through the restart, disk, wire, and query paths, zero-cost when disarmed.
// Arm them per-test or with the daemons' -fault flag; see internal/fault for
// the site list and the DESIGN.md §8 failure model they exercise.
var (
	// ArmFaults arms one or more points from a spec string, e.g.
	// "shm.copy_in=corrupt;count=1,disk.read=delay:50ms".
	ArmFaults = fault.ArmSpec
	// ResetFaults disarms every fault point.
	ResetFaults = fault.Reset
	// FaultSites lists the registered injection sites.
	FaultSites = fault.Sites
	// DescribeFaults renders the currently armed points.
	DescribeFaults = fault.String
)

// Ingestion pipeline.
type (
	// Bus is the simulated Scribe message bus.
	Bus = scribe.Bus
	// Tailer pumps one Scribe category into the cluster.
	Tailer = tailer.Tailer
	// TailerConfig configures a tailer.
	TailerConfig = tailer.Config
	// Placer implements two-random-choice batch placement.
	Placer = tailer.Placer
	// PlacerTarget is a leaf as seen by a tailer.
	PlacerTarget = tailer.Target
	// Aggregator fans queries out to leaves and merges partial results.
	Aggregator = aggregator.Aggregator
)

// NewBus creates a Scribe-like bus retaining up to retain messages per
// category (0 = default).
func NewBus(retain int) *Bus { return scribe.NewBus(retain) }

// ScribeServer exposes a bus over TCP (run by cmd/scribed); ScribeClient
// satisfies the same Source interface tailers consume in-process.
type (
	ScribeServer = scribe.Server
	ScribeClient = scribe.Client
)

// NewScribeServer serves a bus on addr.
func NewScribeServer(bus *Bus, addr string) (*ScribeServer, error) {
	return scribe.NewServer(bus, addr)
}

// DialScribe connects to a remote scribed.
func DialScribe(addr string) *ScribeClient { return scribe.Dial(addr) }

// TailerCheckpoint persists a tailer's offset across tailer restarts.
type TailerCheckpoint = tailer.Checkpoint

// NewTailerCheckpoint names the checkpoint file.
var NewTailerCheckpoint = tailer.NewCheckpoint

// NewPlacer creates a two-random-choice placer.
var NewPlacer = tailer.NewPlacer

// NewTailer creates a tailer over a bus and placer.
var NewTailer = tailer.New

// EncodeRow and DecodeRow convert rows to and from Scribe payloads.
var (
	EncodeRow = tailer.EncodeRow
	DecodeRow = tailer.DecodeRow
)

// Networking.
type (
	// Server exposes a leaf over TCP.
	Server = wire.Server
	// AggServer exposes an aggregator over TCP (one per machine, Figure 1).
	AggServer = wire.AggServer
	// Client talks to a remote leaf or aggregator; it satisfies both the
	// tailer target and aggregator target interfaces.
	Client = wire.Client
)

// NewServer serves a leaf on addr.
func NewServer(l *Leaf, addr string) (*Server, error) { return wire.NewServer(l, addr) }

// NewServerOn serves a leaf on addr with a caller-owned metrics registry, so
// the daemon's /metrics endpoint shows RPC counters and query latency
// histograms next to its restart-phase timers.
func NewServerOn(l *Leaf, addr string, reg *MetricsRegistry) (*Server, error) {
	return wire.NewServerOn(l, addr, reg)
}

// NewAggServer serves an aggregator over the given leaf addresses.
func NewAggServer(leafAddrs []string, addr string) (*AggServer, error) {
	return wire.NewAggServer(leafAddrs, addr)
}

// NewAggServerOn is NewAggServer with a caller-owned metrics registry wired
// into the aggregator's fan-out instrumentation.
func NewAggServerOn(leafAddrs []string, addr string, reg *MetricsRegistry) (*AggServer, error) {
	return wire.NewAggServerOn(leafAddrs, addr, reg)
}

// DialLeaf connects to a remote leaf (or aggregator) server.
func DialLeaf(addr string) *Client { return wire.Dial(addr) }

// Background maintenance.
type (
	// Maintainer runs a leaf's background disk sync and expiration loop.
	Maintainer = leaf.Maintainer
	// MaintenanceConfig tunes the loop intervals.
	MaintenanceConfig = leaf.MaintenanceConfig
)

// Placement policies (tailer ablation knob).
const (
	PolicyTwoChoice = tailer.PolicyTwoChoice
	PolicyRandom    = tailer.PolicyRandom
)

// Simulation of production scale.
type (
	// SimParams parameterize the discrete-event cluster model.
	SimParams = sim.Params
	// SimReport summarizes one simulated rollover.
	SimReport = sim.Report
)

// DefaultSimParams returns the paper-calibrated cluster model (100 machines
// x 8 leaves x 15 GB).
var DefaultSimParams = sim.DefaultParams

// WeeklyFullAvailability converts a rollover duration into the fraction of
// a week with 100% of data available (the paper's 93% vs 99.5%).
var WeeklyFullAvailability = sim.WeeklyFullAvailability

// Observability: one span record (a query's root and per-leaf spans, a
// restart's phase per table and worker) feeding the phase timers on /metrics,
// the flight recorder and __system.traces, plus a crash-surviving flight
// recorder in shared memory (its own segment, namespace "<ns>-obs", so the
// leaf's segment sweep never deletes it). Every daemon takes an -http flag and
// serves /metrics (Prometheus text), /debug/recovery (the live recovery state)
// and /debug/pprof through ObsHandler; a nil Observer or FlightRecorder is a
// valid no-op.
type (
	// Span is one step of a trace: a query on its aggregator, one leaf's
	// share of it, or a restart phase (table, worker, recovery source,
	// blocks, bytes); start, duration, error.
	Span = obs.Span
	// Trace is one trace's spans, with the views tools read it through
	// (Root, Leaves, Half, Phases, TopLevel, Tables, Elapsed, Slowest).
	Trace = obs.Trace
	// MetricsRegistry is a named counter/gauge/timer/histogram registry.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time copy of a whole registry.
	MetricsSnapshot = metrics.Snapshot
	// Observer is where a daemon's observability meets: registry, flight
	// recorder, the finished-span hooks (telemetry sink, profiler).
	Observer = obs.Observer
	// FlightRecorder is the crash-surviving event ring in shared memory.
	FlightRecorder = obs.Recorder
	// FlightRecorderOptions configure the recorder segment location.
	FlightRecorderOptions = obs.RecorderOptions
	// FlightEvent is one recorded lifecycle event.
	FlightEvent = obs.Event
	// ObsHandlerConfig wires a daemon's sinks into the HTTP mux.
	ObsHandlerConfig = obs.HandlerConfig
	// ObsHTTPServer is one daemon's observability listener.
	ObsHTTPServer = obs.HTTPServer
)

// Tracing: the aggregator stamps every query with a trace ID and per-leaf
// span IDs, the wire envelope (protocol v2) carries the context, each leaf
// answers with an ExecStats report; the assembled cross-leaf trace goes to
// the observer's span hooks, whose sink keeps it in __system.traces.
type (
	// TraceContext is the (trace ID, span ID) pair carried in request
	// envelopes; the zero value means untraced.
	TraceContext = obs.TraceContext
	// ExecStats is one leaf's per-query execution report.
	ExecStats = obs.ExecStats
	// Tracer files query traces with its observer (Observer.Tracer).
	Tracer = obs.Tracer
	// TracerOptions configure the slow threshold.
	TracerOptions = obs.TracerOptions
)

// NewTraceSpanID mints a random nonzero trace or span ID.
var NewTraceSpanID = obs.RandomID

// WireProtocolVersion is the RPC protocol version this build speaks
// (version 2 added trace context, 3 the batch frame, 4 the result frame; a
// server answers an older requester in the shape it reads).
const WireProtocolVersion = wire.ProtocolVersion

// Flight-recorder event kinds.
const (
	FlightBegin = obs.EventBegin
	FlightEnd   = obs.EventEnd
	FlightFail  = obs.EventFail
	FlightNote  = obs.EventNote
)

// Observability constructors.
var (
	// NewMetricsRegistry creates an empty registry.
	NewMetricsRegistry = metrics.NewRegistry
	// NewObserver ties a registry and recorder together (either may be nil).
	NewObserver = obs.New
	// OpenFlightRecorder opens (or creates) a leaf's flight-recorder
	// segment, returning the previous run's events if any survived.
	OpenFlightRecorder = obs.OpenFlightRecorder
	// ObsHandler builds the /metrics + /debug/recovery + pprof mux.
	ObsHandler = obs.Handler
	// StartObsHTTP serves a handler on addr in the background.
	StartObsHTTP = obs.StartHTTP
)

// Self-telemetry (Scuba-on-Scuba): each daemon can ingest its own metric
// snapshots, finished spans and flight-recorder events into reserved
// __system.* tables through the ordinary leaf path — a leaf's own sink is the
// one writer of its facts (rows, recovery path, query counters: what
// `scuba-cli health` reads from __system.metrics) — and every /metrics
// endpoint speaks the Prometheus text exposition. System
// tables are plain leaf-local tables, so the telemetry rides the
// shared-memory restart path like any other data.
type (
	// TelemetrySink converts observability events into __system rows and
	// delivers them off the hot path.
	TelemetrySink = obs.Sink
	// TelemetrySinkConfig configures a sink's delivery and sampling.
	TelemetrySinkConfig = obs.SinkConfig
)

// Self-telemetry constructors and helpers.
var (
	// NewTelemetrySink builds a sink (Emit is required; see SinkConfig).
	NewTelemetrySink = obs.NewSink
	// IsSystemTable reports whether a table name is reserved telemetry.
	IsSystemTable = obs.IsSystemTable
	// CanonicalMetricName is the snake_case spelling shared by the
	// Prometheus exposition and the __system.metrics rows.
	CanonicalMetricName = metrics.CanonicalName
	// TelemetrySnapshotRows flattens a metrics snapshot into rows.
	TelemetrySnapshotRows = obs.SnapshotRows
)

// Reserved self-telemetry table names.
const (
	SystemTablePrefix   = obs.SystemTablePrefix
	SystemMetricsTable  = obs.SystemMetricsTable
	SystemTracesTable   = obs.SystemTracesTable
	SystemRecorderTable = obs.SystemRecorderTable
	SystemRolloverTable = obs.SystemRolloverTable
	SystemProfilesTable = obs.SystemProfilesTable
)

// Continuous profiling: every daemon runs a background sampler that folds
// short CPU-profile windows and heap deltas into top-N per-function rows in
// __system.profiles, with anomaly-triggered captures (slow query, restart
// phase over budget, GC-pause spike) tagged with the trace that tripped
// them.
type (
	// ContinuousProfiler is the per-daemon capture loop.
	ContinuousProfiler = profile.Profiler
	// ProfilerConfig configures cadence, windows, budgets and delivery.
	ProfilerConfig = profile.Config
	// PprofProfile is a decoded pprof protobuf (the in-repo decoder).
	PprofProfile = profile.Profile
)

// Continuous-profiling constructors and helpers.
var (
	// NewProfiler builds and starts a profiler (Sink is required).
	NewProfiler = profile.New
	// DecodePprof parses a (gzipped) pprof protobuf profile.
	DecodePprof = profile.Decode
	// EnableContentionProfiling turns on mutex/block profiling so
	// /debug/pprof/mutex and /debug/pprof/block return real data.
	EnableContentionProfiling = profile.EnableContention
)

// Capture triggers recorded in the __system.profiles "trigger" column, and
// the synthetic per-capture totals row.
const (
	ProfileTriggerInterval  = profile.TriggerInterval
	ProfileTriggerSlowQuery = profile.TriggerSlowQuery
	ProfileTriggerRestart   = profile.TriggerRestart
	ProfileTriggerGCPause   = profile.TriggerGCPause
	ProfileTotalFunction    = profile.TotalFunction
)

// Workload generators.
type (
	// Workload generates synthetic rows for one table.
	Workload = workload.Generator
	// WorkloadQueries generates a realistic query mix.
	WorkloadQueries = workload.Queries
)

// Generators for the workloads the paper's introduction motivates.
var (
	ServiceLogs = workload.ServiceLogs
	ErrorEvents = workload.ErrorEvents
	AdsRevenue  = workload.AdsRevenue
	NewQueries  = workload.NewQueries
)
