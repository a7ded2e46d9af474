package query

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"scuba/internal/column"
	"scuba/internal/metrics"
	"scuba/internal/rowblock"
	"scuba/internal/table"
)

// Block is the executor's view of a batch of rows: a sealed row block or an
// unsealed builder snapshot.
type Block interface {
	Rows() int
	// Within reports whether every row's time lies in [from, to]; the scan
	// then never asks for Times.
	Within(from, to int64) bool
	// Times returns the time column, decoded into dst's array when the block
	// has to decode at all.
	Times(dst []int64) ([]int64, error)
	HasColumn(name string) bool
	// DecodeColumn returns the named column in the form the kernels read:
	// values in place, dictionary IDs, a string set's rows still encoded.
	DecodeColumn(name string) (column.Column, error)
}

var (
	_ Block = (*rowblock.RowBlock)(nil)
	_ Block = (*rowblock.UnsealedView)(nil)
)

// ExecOptions tune one execution. The zero value has no cross-query cache and
// no metrics.
type ExecOptions struct {
	// Cache, when non-nil, holds decoded columns across queries (shared by
	// every query against the same table; safe for concurrent use).
	Cache *DecodeCache
	// Metrics, when non-nil, receives the per-query execution latency — the
	// query.exec.latency timer — plus
	// the query.exec.count, query.exec.errors and query.blocks_pruned
	// counters. The names carry the "exec." infix so a daemon sharing one
	// registry between its wire server (which times whole RPCs as
	// query.latency) and its leaf never double-counts.
	Metrics *metrics.Registry
}

// Execute runs a query over one leaf's copy of a table, producing a partial
// result: the one entry every table execution takes. Sealed blocks outside
// the time range are skipped via their min/max headers without decoding
// anything (§2.1), blocks whose zone maps exclude a filter are pruned without
// decode, and the survivors are fanned over a bounded worker pool, each
// worker folding into groups of its own that are merged at the end (the
// cross-leaf merge is associative and commutative, so block order doesn't
// matter). Unsealed rows are scanned in-line through a snapshot taken
// together with the sealed-block list, so every row applied before the query
// is in exactly one of the two.
func Execute(tbl *table.Table, q *Query, opts ExecOptions) (*Result, error) {
	start := time.Now()
	res, err := execute(tbl, q, opts)
	if reg := opts.Metrics; reg != nil {
		reg.Counter("query.exec.count").Add(1)
		if err != nil {
			reg.Counter("query.exec.errors").Add(1)
		} else {
			reg.Timer("query.exec.latency").Observe(time.Since(start))
			reg.Counter("query.blocks_pruned").Add(res.BlocksPruned)
		}
	}
	return res, err
}

func execute(tbl *table.Table, q *Query, opts ExecOptions) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p := compile(q)
	var res *Result
	// The whole scan runs inside the table's query gate: shutdown waits for
	// in-flight queries before releasing block columns, so workers must not
	// outlive the gate.
	err := tbl.ScanView(q.From, q.To, func(v table.View) error {
		// The scan pool is the cores this process was given, at most one
		// worker a block; one worker scans on the calling goroutine.
		workers := max(min(runtime.GOMAXPROCS(0), len(v.Blocks)), 1)
		scanners := make([]*scanner, workers)
		for w := range scanners {
			scanners[w] = newScanner(p, opts.Cache)
			defer scanners[w].release()
		}
		if err := scanSealed(v.Blocks, scanners); err != nil {
			return err
		}
		if v.Active != nil && v.Active.Overlaps(q.From, q.To) {
			first := scanners[0]
			if err := first.scanBlock(v.Active); err != nil {
				return err
			}
			first.res.BlocksScanned-- // the unsealed tail is not a sealed block
		}
		res = scanners[0].finish()
		if workers > 1 {
			mergeStart := time.Now()
			for _, s := range scanners[1:] {
				res.Merge(s.finish())
			}
			res.Phases.MergeNanos += time.Since(mergeStart).Nanoseconds()
		}
		res.BlocksSkipped = int64(v.NumBlocks) - res.BlocksScanned - res.BlocksPruned
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// scanSealed fans the sealed-block snapshot over the scanners, one goroutine
// each when there is more than one.
func scanSealed(blocks []*rowblock.RowBlock, scanners []*scanner) error {
	if len(scanners) == 1 {
		for _, rb := range blocks {
			if err := scanners[0].scanBlock(rb); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
		errs = make([]error, len(scanners))
	)
	for w, s := range scanners {
		wg.Add(1)
		go func(w int, s *scanner) {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(blocks) {
					return
				}
				if err := s.scanBlock(blocks[i]); err != nil {
					errs[w] = err
					stop.Store(true)
					return
				}
			}
		}(w, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
