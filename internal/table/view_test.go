package table

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"scuba/internal/column"
	"scuba/internal/layout"
	"scuba/internal/rowblock"
)

// drift is a deterministic ingest history with drifting schemas. Row r (its
// global index) has time r, so a view names its own rows; batch b starts at
// row starts[b] and carries a column only when carries says so, its other
// rows reading zero. "late" first appears in the middle of the second block
// and is backfilled under the rows that block already holds.
type drift struct{ starts []int64 }

var (
	driftNames = []string{"f", "i", "late", "s", "set"} // the batch order
	driftTypes = map[string]layout.ValueType{"f": layout.TypeFloat64, "i": layout.TypeInt64,
		"late": layout.TypeInt64, "s": layout.TypeString, "set": layout.TypeStringSet}
	driftStrs  = []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10"}
	driftSets  = [][]string{{"a", "b0"}, {"a", "b1"}, {"a", "b2"}}
	driftSizes = []int64{1, 3001, 4999, 17, 2500, 6007, 777}
)

const driftLate = rowblock.MaxRows + 8000

func newDrift(total int64) *drift {
	d := &drift{}
	for r, b := int64(0), 0; r < total; b++ {
		d.starts = append(d.starts, r)
		r += driftSizes[b%len(driftSizes)]
	}
	return d
}

// carries reports whether batch b carries the named column.
func (d *drift) carries(b int, name string) bool {
	switch name {
	case "f":
		return b%3 != 0
	case "i":
		return b%4 != 3
	case "late":
		return d.starts[b] >= driftLate
	case "s":
		return b%5 != 2
	default: // "set"
		return b%2 == 0
	}
}

// batchOf returns the batch that holds row r.
func (d *drift) batchOf(r int64) int {
	return sort.Search(len(d.starts), func(b int) bool { return d.starts[b] > r }) - 1
}

func (d *drift) batch(b int) *rowblock.Batch {
	n := driftSizes[b%len(driftSizes)]
	bt := &rowblock.Batch{Times: make([]int64, n)}
	for _, name := range driftNames {
		if !d.carries(b, name) {
			continue
		}
		c := rowblock.BatchColumn{Name: name, Type: driftTypes[name]}
		for r := d.starts[b]; r < d.starts[b]+n; r++ {
			switch name {
			case "f":
				c.Floats = append(c.Floats, float64(r)/4+0.25)
			case "i":
				c.Ints = append(c.Ints, 7*r-3)
			case "late":
				c.Ints = append(c.Ints, r+1)
			case "s":
				c.Strs = append(c.Strs, driftStrs[r%11])
			case "set":
				c.Sets = append(c.Sets, driftSets[r%3])
			}
		}
		bt.Cols = append(bt.Cols, c)
	}
	for k := range bt.Times {
		bt.Times[k] = d.starts[b] + int64(k)
	}
	return bt
}

type viewBlock interface {
	Times([]int64) ([]int64, error)
	Schema() rowblock.Schema
	DecodeColumn(string) (column.Column, error)
}

// check compares every column of blk with the rows it must hold, from row
// from on, and returns the row after its last.
func (d *drift) check(blk viewBlock, from int64) (int64, error) {
	times, err := blk.Times(nil)
	if err != nil {
		return 0, err
	}
	for k, r := range times {
		if r != from+int64(k) {
			return 0, fmt.Errorf("row %d of a block starting at %d has time %d", k, from, r)
		}
	}
	held := map[string]bool{}
	for _, f := range blk.Schema()[1:] {
		held[f.Name] = true
		col, err := blk.DecodeColumn(f.Name)
		if err != nil {
			return 0, err
		}
		if col.Len() != len(times) {
			return 0, fmt.Errorf("column %q has %d rows, the block %d", f.Name, col.Len(), len(times))
		}
		var sets [][]string
		if c, ok := col.(*column.StringSetColumn); ok {
			if sets, err = c.Values(); err != nil {
				return 0, err
			}
		}
		b := d.batchOf(from)
		for k, r := range times {
			for b+1 < len(d.starts) && d.starts[b+1] <= r {
				b++
			}
			ok, in := false, d.carries(b, f.Name)
			switch c := col.(type) {
			case *column.Int64Column:
				want := 7*r - 3
				if f.Name == "late" {
					want = r + 1
				}
				ok = c.Values[k] == want && in || c.Values[k] == 0 && !in
			case *column.Float64Column:
				ok = c.Values[k] == float64(r)/4+0.25 && in || c.Values[k] == 0 && !in
			case *column.StringColumn:
				ok = c.Value(k) == driftStrs[r%11] && in || c.Value(k) == "" && !in
			case *column.StringSetColumn:
				s := sets[k]
				ok = len(s) == 2 && s[0] == "a" && s[1] == driftSets[r%3][1] && in || len(s) == 0 && !in
			}
			if !ok {
				return 0, fmt.Errorf("row %d column %q (carried %v) reads wrong", r, f.Name, in)
			}
		}
	}
	for b := d.batchOf(from); b < len(d.starts) && d.starts[b] < from+int64(len(times)); b++ {
		for _, name := range driftNames {
			if !held[name] && d.carries(b, name) {
				return 0, fmt.Errorf("rows from %d lack column %q their batch carried", d.starts[b], name)
			}
		}
	}
	return from + int64(len(times)), nil
}

// TestViewsAgreeWithAppendedPrefix races readers against one writer: each
// reader takes a view and, while the writer appends, backfills and seals
// beside it, checks every column of every row the view holds — the sealed
// blocks once each, the unsealed tail every time, whose string and set
// columns the readers take from the interners the writer is appending to —
// and that the view holds at least the rows appended before it was taken. A
// view taken before the seal is read only after it, and a read interns
// nothing. Run it under -race: the tail aliases the builder's vectors and
// its interners. The lock order is the table lock, then an interner's
// mutex: AddBatch interns under both, a view's read takes the interner's
// mutex only.
func TestViewsAgreeWithAppendedPrefix(t *testing.T) {
	d := newDrift(rowblock.MaxRows + 25000)
	if b := d.batchOf(rowblock.MaxRows); d.starts[b] == rowblock.MaxRows {
		t.Fatal("no batch straddles the seal")
	}
	tbl := New("events", Options{})
	// handed counts the rows given to AddBatch, appended those it returned for.
	var handed, appended, scans, actives atomic.Int64
	var done atomic.Bool
	var wg sync.WaitGroup
	scan := func(checked map[*rowblock.RowBlock]bool) error {
		known := appended.Load()
		return tbl.ScanView(0, 1<<62, func(v View) error {
			scans.Add(1)
			next := int64(0)
			for _, rb := range v.Blocks {
				if checked[rb] {
					next += int64(rb.Rows())
					continue
				}
				var err error
				if next, err = d.check(rb, next); err != nil {
					return fmt.Errorf("sealed block: %w", err)
				}
				checked[rb] = true
			}
			if v.Active != nil {
				actives.Add(1)
				var err error
				if next, err = d.check(v.Active, next); err != nil {
					return fmt.Errorf("unsealed tail: %w", err)
				}
			}
			if next < known || next > handed.Load() {
				return fmt.Errorf("view holds rows [0, %d), %d were appended before it, %d handed over", next, known, handed.Load())
			}
			return nil
		})
	}
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			checked := map[*rowblock.RowBlock]bool{}
			for !done.Load() {
				if err := scan(checked); err != nil {
					t.Error(err)
					done.Store(true)
				}
			}
		}()
	}
	last := len(d.starts) - 1 // held back for the allocation check below
	for b := 0; b < last && !done.Load(); b++ {
		bt := d.batch(b)
		// The batch that seals: a view taken before it is read only after it.
		var pre *rowblock.UnsealedView
		if d.starts[b] < rowblock.MaxRows && d.starts[b]+int64(bt.Rows()) > rowblock.MaxRows {
			if err := tbl.ScanView(0, 1<<62, func(v View) error { pre = v.Active; return nil }); err != nil || pre == nil {
				t.Errorf("no view of the tail before the seal: %v", err)
				break
			}
		}
		handed.Add(int64(bt.Rows()))
		if err := tbl.AddBatch(bt, 1); err != nil {
			t.Error(err)
			break
		}
		appended.Add(int64(bt.Rows()))
		if pre != nil {
			if next, err := d.check(pre, 0); err != nil || next != d.starts[b] {
				t.Errorf("a view taken before the seal and read after it holds rows [0, %d), want [0, %d): %v", next, d.starts[b], err)
			}
		}
		// Append the next batch only once a reader holds a view: the appends
		// then run beside the reads.
		for seen := scans.Load(); scans.Load() == seen && !done.Load(); {
			runtime.Gosched()
		}
	}
	done.Store(true)
	wg.Wait()
	// AddBatch interned the tail's string and set rows: reading those
	// columns of a fresh view costs their two column headers, at 25,000
	// rows as at one.
	readTail := func(cols ...string) func() {
		return func() {
			err := tbl.ScanView(0, 1<<62, func(v View) error {
				for _, c := range cols {
					if _, err := v.Active.DecodeColumn(c); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}
	}
	bt := d.batch(last)
	handed.Add(int64(bt.Rows()))
	if err := tbl.AddBatch(bt, 1); err != nil {
		t.Fatal(err)
	}
	appended.Add(int64(bt.Rows()))
	if bare, read := testing.AllocsPerRun(10, readTail()), testing.AllocsPerRun(10, readTail("s", "set")); read != bare+2 {
		t.Errorf("reading the string and set columns of an interned tail allocates %v times beyond the view's %v, want 2", read-bare, bare)
	}
	if err := scan(map[*rowblock.RowBlock]bool{}); err != nil {
		t.Fatal(err)
	}
	if st := tbl.Stats(); st.NumBlocks != 1 || st.Rows+int64(st.Unsealed) != appended.Load() {
		t.Errorf("stats %+v after %d rows", st, appended.Load())
	}
	t.Logf("%d batches, %d views, %d with an unsealed tail", len(d.starts), scans.Load(), actives.Load())
}
