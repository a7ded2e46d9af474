// Package tailer implements Scuba's tailer processes (§2, Figure 1). A
// tailer pulls one table's rows out of Scribe and, every N rows or t
// seconds, chooses a leaf server and sends it the batch.
//
// Placement is the paper's two-random-choice policy: pick two leaves at
// random, ask both for their state and free memory, and send to the leaf
// with more free memory if both are alive. If only one is alive, it gets
// the batch. If neither is alive, try two more leaves, and after enough
// tries send the data to a restarting server (§2).
package tailer

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"scuba/internal/leaf"
	"scuba/internal/metrics"
	"scuba/internal/rowblock"
	"scuba/internal/scribe"
)

// Target is a leaf server as seen by a tailer: something that reports state
// and free memory and accepts batches. In-process clusters adapt
// *leaf.Leaf; distributed deployments adapt a wire client.
type Target interface {
	Stats() (leaf.Stats, error)
	AddRows(table string, rows []rowblock.Row) error
}

// EncodeRow serializes a row for a Scribe payload: one row payload
// (rowblock.AppendRowPayload). Producers and tailers must share a build.
func EncodeRow(r rowblock.Row) ([]byte, error) {
	b, err := rowblock.AppendRowPayload(nil, r)
	if err != nil {
		return nil, fmt.Errorf("tailer: encode row: %w", err)
	}
	return b, nil
}

// DecodeRow parses a Scribe payload back into a row.
func DecodeRow(b []byte) (rowblock.Row, error) {
	r, n, err := rowblock.DecodeRowPayload(b)
	if err == nil && n != len(b) {
		err = fmt.Errorf("%w: %d trailing bytes", rowblock.ErrBatchCorrupt, len(b)-n)
	}
	if err != nil {
		return rowblock.Row{}, fmt.Errorf("tailer: decode row: %w", err)
	}
	return r, nil
}

// ErrNoTarget is returned when no leaf could accept a batch at all.
var ErrNoTarget = errors.New("tailer: no leaf accepted the batch")

// BatchPlacer chooses where one batch lands. Placer implements the paper's
// two-random-choice policy; ShardedPlacer dual-writes under a shard map.
type BatchPlacer interface {
	Place(table string, rows []rowblock.Row) (int, error)
}

// PlacerStats counts placements: batches, rows, and how each was decided.
type PlacerStats struct {
	Batches        int64
	RowsPlaced     int64
	BothAlive      int64 // decided by free memory between two alive leaves
	SentToRecovery int64 // fell back to a restarting server
	PerTarget      []int64
}

// Policy selects the placement strategy. The paper uses two-random-choice;
// PolicyRandom exists as an ablation baseline (BenchmarkAblationPlacement).
type Policy uint8

// Placement policies.
const (
	PolicyTwoChoice Policy = iota // pick two, send to the freer alive leaf
	PolicyRandom                  // pick one alive leaf uniformly at random
)

// placeTries is how many random pairs a placement probes before falling back
// to a restarting server. The paper says "after enough tries".
const placeTries = 4

// Placer implements two-random-choice placement over a fixed target set.
type Placer struct {
	mu       sync.Mutex
	targets  []Target
	rng      *rand.Rand
	maxTries int // placeTries unless a test raises it
	// Policy is PolicyTwoChoice unless overridden for ablations.
	Policy Policy
	stats  PlacerStats
}

// NewPlacer creates a placer; seed fixes the random choices for tests.
func NewPlacer(targets []Target, seed int64) *Placer {
	return &Placer{
		targets:  targets,
		rng:      rand.New(rand.NewSource(seed)),
		maxTries: placeTries,
		stats:    PlacerStats{PerTarget: make([]int64, len(targets))},
	}
}

// Stats returns a snapshot of placement counters.
func (p *Placer) Stats() PlacerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.PerTarget = append([]int64(nil), p.stats.PerTarget...)
	return st
}

// isAlive reports whether a leaf is fully alive (not restarting).
func isAlive(st leaf.Stats, err error) bool {
	return err == nil && st.State == leaf.StateAlive
}

// isAccepting reports whether a leaf can take adds at all (alive or in disk
// recovery, §4.1).
func isAccepting(st leaf.Stats, err error) bool {
	return err == nil && (st.State == leaf.StateAlive || st.State == leaf.StateDiskRecovery)
}

// Place sends one batch to a leaf per the two-choice policy and returns the
// chosen target index.
func (p *Placer) Place(table string, rows []rowblock.Row) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.targets) == 0 {
		return -1, ErrNoTarget
	}
	p.stats.Batches++

	var recoveryCandidate = -1
	for try := 0; try < p.maxTries; try++ {
		i := p.rng.Intn(len(p.targets))
		if p.Policy == PolicyRandom {
			// Ablation baseline: one uniformly random probe per try,
			// ignoring free memory entirely.
			si, erri := p.targets[i].Stats()
			if isAlive(si, erri) {
				return i, p.send(i, table, rows)
			}
			if recoveryCandidate < 0 && isAccepting(si, erri) {
				recoveryCandidate = i
			}
			continue
		}
		j := p.rng.Intn(len(p.targets))
		for len(p.targets) > 1 && j == i {
			j = p.rng.Intn(len(p.targets))
		}
		si, erri := p.targets[i].Stats()
		sj, errj := p.targets[j].Stats()
		iAlive, jAlive := isAlive(si, erri), isAlive(sj, errj)
		switch {
		case iAlive && jAlive:
			pick := i
			if sj.FreeMemory > si.FreeMemory {
				pick = j
			}
			p.stats.BothAlive++
			return pick, p.send(pick, table, rows)
		case iAlive:
			return i, p.send(i, table, rows)
		case jAlive:
			return j, p.send(j, table, rows)
		default:
			if recoveryCandidate < 0 {
				if isAccepting(si, erri) {
					recoveryCandidate = i
				} else if isAccepting(sj, errj) {
					recoveryCandidate = j
				}
			}
		}
	}
	// After enough tries, send the data to a restarting server (§2).
	if recoveryCandidate >= 0 {
		p.stats.SentToRecovery++
		return recoveryCandidate, p.send(recoveryCandidate, table, rows)
	}
	// Last resort: probe every target once for anything accepting.
	for i := range p.targets {
		if st, err := p.targets[i].Stats(); isAccepting(st, err) {
			p.stats.SentToRecovery++
			return i, p.send(i, table, rows)
		}
	}
	return -1, ErrNoTarget
}

func (p *Placer) send(idx int, table string, rows []rowblock.Row) error {
	if err := p.targets[idx].AddRows(table, rows); err != nil {
		return err
	}
	p.stats.RowsPlaced += int64(len(rows))
	p.stats.PerTarget[idx]++
	return nil
}

// Config configures a tailer loop.
type Config struct {
	// Category is the Scribe category to tail; Table is the Scuba table the
	// rows land in (usually the same name).
	Category string
	Table    string
	// BatchRows flushes a batch every N rows and bounds one Scribe read
	// (default 1000).
	BatchRows int
	// FlushInterval flushes a partial batch after this long (default 1s).
	FlushInterval time.Duration
	// Checkpoint, when set, is loaded at construction (overriding the
	// offset argument) and saved after every successful drain, so a
	// restarted tailer resumes where its predecessor stopped.
	Checkpoint *Checkpoint
	// Metrics, when non-nil, receives tailer instrumentation: the
	// tailer.rows_placed counter and tailer.errors counter, tailer.rows_lost
	// / tailer.rows_bad gauges (cumulative), and the tailer.drain timer.
	Metrics *metrics.Registry
}

// Tailer pumps one category from Scribe into the cluster.
type Tailer struct {
	cfg    Config
	reader *scribe.Tailer
	placer BatchPlacer

	// RowsLost counts rows dropped by Scribe retention.
	RowsLost int64
	// RowsBad counts undecodable payloads.
	RowsBad int64
}

// New creates a tailer reading from offset. The source may be an in-process
// scribe.Bus or a network scribe.Client.
func New(cfg Config, bus scribe.Source, placer BatchPlacer, offset int64) *Tailer {
	if cfg.BatchRows <= 0 {
		cfg.BatchRows = 1000
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = time.Second
	}
	if cfg.Table == "" {
		cfg.Table = cfg.Category
	}
	if cfg.Checkpoint != nil {
		if saved := cfg.Checkpoint.Load(); saved > offset {
			offset = saved
		}
	}
	return &Tailer{cfg: cfg, reader: scribe.NewTailer(bus, cfg.Category, offset), placer: placer}
}

// Offset is the Scribe offset the next drain reads from: the checkpoint a
// restarted tailer resumed at, until it drains.
func (t *Tailer) Offset() int64 { return t.reader.Offset() }

// DrainOnce pulls everything currently in the category and places it in
// batches, returning rows placed. It is the synchronous building block for
// tests, benchmarks and the simulator; Run wraps it in a loop.
func (t *Tailer) DrainOnce() (placed int, err error) {
	if r := t.cfg.Metrics; r != nil {
		start := time.Now()
		defer func() {
			r.Counter("tailer.rows_placed").Add(int64(placed))
			r.Gauge("tailer.rows_lost").Set(t.RowsLost)
			r.Gauge("tailer.rows_bad").Set(t.RowsBad)
			r.Timer("tailer.drain").Observe(time.Since(start))
			if err != nil {
				r.Counter("tailer.errors").Add(1)
			}
		}()
	}
	var batch []rowblock.Row
	// from, badAt and lostAt are the reader's offset and counters just past
	// the last placed batch. When no leaf takes a batch, nothing was sent
	// anywhere: the tailer rewinds to them, and the next drain reads those
	// messages — and counts what it skips among them — again.
	from, badAt, lostAt := t.reader.Offset(), t.RowsBad, t.RowsLost
	flush := func(next int64) error {
		if len(batch) == 0 {
			return nil
		}
		if _, err := t.placer.Place(t.cfg.Table, batch); err != nil {
			if errors.Is(err, ErrNoTarget) {
				t.reader.Rewind(from)
				t.RowsBad, t.RowsLost = badAt, lostAt
			}
			return err
		}
		placed += len(batch)
		batch = batch[:0]
		from, badAt, lostAt = next, t.RowsBad, t.RowsLost
		return nil
	}
	for {
		msgs, lost, err := t.reader.Poll(t.cfg.BatchRows)
		if err != nil {
			return placed, err
		}
		t.RowsLost += lost
		if len(msgs) == 0 {
			break
		}
		for _, m := range msgs {
			row, err := DecodeRow(m.Payload)
			if err != nil {
				t.RowsBad++
				continue
			}
			batch = append(batch, row)
			if len(batch) >= t.cfg.BatchRows {
				if err := flush(m.Offset + 1); err != nil {
					return placed, err
				}
			}
		}
	}
	if err := flush(t.reader.Offset()); err != nil {
		return placed, err
	}
	if t.cfg.Checkpoint != nil {
		if err := t.cfg.Checkpoint.Save(t.reader.Offset()); err != nil {
			return placed, err
		}
	}
	return placed, nil
}

// Run pumps until stop is closed, flushing every N rows or t seconds (§2).
// A batch no leaf takes (ErrNoTarget) is tried again on the next tick.
func (t *Tailer) Run(stop <-chan struct{}) error {
	ticker := time.NewTicker(t.cfg.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			_, err := t.DrainOnce()
			return err
		case <-ticker.C:
			if _, err := t.DrainOnce(); err != nil && !errors.Is(err, ErrNoTarget) {
				return err
			}
		}
	}
}
