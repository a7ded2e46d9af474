package query

import (
	"reflect"
	"testing"

	"scuba/internal/column"
	"scuba/internal/layout"
	"scuba/internal/metrics"
	"scuba/internal/rowblock"
	"scuba/internal/table"
)

func cacheCounters(reg *metrics.Registry) (hits, misses, evictions int64) {
	return reg.Counter("query.decode_cache.hits").Value(),
		reg.Counter("query.decode_cache.misses").Value(),
		reg.Counter("query.decode_cache.evictions").Value()
}

func TestDecodeCacheHitsOnRepeat(t *testing.T) {
	tbl := fixtureTable(t)
	reg := metrics.NewRegistry()
	dc := NewDecodeCache(64<<20, reg)
	q := &Query{
		Table: "events", From: 0, To: 1 << 40,
		GroupBy:      []string{"service"},
		Aggregations: []Aggregation{{Op: AggAvg, Column: "latency"}},
	}
	cold, err := executeOn(1, tbl, q, ExecOptions{Cache: dc})
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := cacheCounters(reg)
	if hits != 0 {
		t.Errorf("cold run produced %d hits", hits)
	}
	// 3 blocks x 2 columns (service, latency) populated the cache.
	if entries, bytes := dc.Stats(); entries != 6 || bytes <= 0 {
		t.Errorf("entries=%d bytes=%d after cold run", entries, bytes)
	}
	if misses != 6 {
		t.Errorf("cold misses = %d, want 6", misses)
	}

	warm, err := executeOn(1, tbl, q, ExecOptions{Cache: dc})
	if err != nil {
		t.Fatal(err)
	}
	hits, misses2, _ := cacheCounters(reg)
	if hits != 6 {
		t.Errorf("warm hits = %d, want 6", hits)
	}
	if misses2 != misses {
		t.Errorf("warm run missed (%d -> %d)", misses, misses2)
	}
	if !reflect.DeepEqual(cold.Rows(q), warm.Rows(q)) {
		t.Errorf("cached results diverge from cold results")
	}
}

func TestDecodeCacheEviction(t *testing.T) {
	tbl := fixtureTable(t)
	reg := metrics.NewRegistry()
	// Budget fits roughly one column entry: every insert evicts the last.
	dc := NewDecodeCache(1500, reg)
	q := &Query{
		Table: "events", From: 0, To: 1 << 40,
		GroupBy:      []string{"service"},
		Aggregations: []Aggregation{{Op: AggAvg, Column: "latency"}},
	}
	if _, err := executeOn(1, tbl, q, ExecOptions{Cache: dc}); err != nil {
		t.Fatal(err)
	}
	_, bytes := dc.Stats()
	if bytes > 1500 {
		t.Errorf("cache over budget: %d bytes", bytes)
	}
	if _, _, evictions := cacheCounters(reg); evictions == 0 {
		t.Errorf("no evictions despite tiny budget")
	}
}

func TestDecodeCacheSkipsUnsealed(t *testing.T) {
	tbl := table.New("events", table.Options{})
	rows := fixtureRows(t, 10)
	if err := tbl.AddRows(rows, 1); err != nil {
		t.Fatal(err)
	}
	// No SealActive: all data lives in the unsealed tail.
	dc := NewDecodeCache(64<<20, nil)
	q := &Query{Table: "events", From: 0, To: 1 << 40,
		GroupBy: []string{"service"}, Aggregations: []Aggregation{{Op: AggCount}}}
	if _, err := executeOn(1, tbl, q, ExecOptions{Cache: dc}); err != nil {
		t.Fatal(err)
	}
	if entries, _ := dc.Stats(); entries != 0 {
		t.Errorf("unsealed view cached (%d entries)", entries)
	}
}

func TestDecodeCacheInvalidateOnExpire(t *testing.T) {
	tbl := table.New("events", table.Options{MaxAgeSeconds: 100})
	tbl.SetEvictHook(nil) // replaced below; exercises the setter
	dc := NewDecodeCache(64<<20, nil)
	tbl.SetEvictHook(dc.InvalidateBlocks)
	for b := 0; b < 3; b++ {
		rows := fixtureRows(t, 50)
		for i := range rows {
			rows[i].Time = int64(1000*b + i)
		}
		if err := tbl.AddRows(rows, 1); err != nil {
			t.Fatal(err)
		}
		if err := tbl.SealActive(); err != nil {
			t.Fatal(err)
		}
	}
	q := &Query{Table: "events", From: 0, To: 1 << 40,
		GroupBy: []string{"service"}, Aggregations: []Aggregation{{Op: AggCount}}}
	if _, err := executeOn(1, tbl, q, ExecOptions{Cache: dc}); err != nil {
		t.Fatal(err)
	}
	before, _ := dc.Stats()
	if before == 0 {
		t.Fatalf("cache empty after query")
	}
	// Expire everything older than now-100: blocks 0 and 1 (max times 49,
	// 1049) go; block 2 (max time 2049 == now-100 exactly) stays.
	dropped, err := tbl.Expire(2149)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 2 {
		t.Fatalf("dropped = %d", dropped)
	}
	after, _ := dc.Stats()
	if after >= before {
		t.Errorf("expire did not invalidate cache: %d -> %d entries", before, after)
	}
	// The survivor's entries are still valid and queryable.
	res, err := executeOn(1, tbl, q, ExecOptions{Cache: dc})
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsScanned != 50 {
		t.Errorf("rows scanned after expire = %d", res.RowsScanned)
	}
}

// fixtureRows builds n rows with a service/latency shape.
func fixtureRows(t *testing.T, n int) []rowblock.Row {
	t.Helper()
	rows := make([]rowblock.Row, n)
	for i := range rows {
		rows[i] = rowblock.Row{
			Time: 1000 + int64(i),
			Cols: map[string]rowblock.Value{
				"service": rowblock.StringValue([]string{"web", "ads"}[i%2]),
				"latency": rowblock.Int64Value(int64(i % 20)),
			},
		}
	}
	return rows
}

// TestDecodeCacheBytesIsSumOfEntries pins the cache's byte count to the sum
// over its live entries through every way an entry changes: insert, replace
// by a column of another size (Put over an existing key used to swap the
// column and keep the old size), eviction, and InvalidateBlocks. A string
// set is priced by its dictionary plus the encoded rows it holds on to.
func TestDecodeCacheBytesIsSumOfEntries(t *testing.T) {
	blocks := fixtureTable(t).Blocks()
	col := func(n int) *column.Int64Column {
		return column.NewInt64(layout.TypeInt64, make([]int64, n))
	}
	dc := NewDecodeCache(20_000, nil)
	check := func(step string) {
		t.Helper()
		var sum int64
		for el := dc.ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*decodeEntry)
			if want := columnBytes(e.key.name, e.col); e.size != want {
				t.Errorf("%s: entry %q holds size %d, its column is %d bytes", step, e.key.name, e.size, want)
			}
			sum += e.size
		}
		if entries, bytes := dc.Stats(); bytes != sum || entries != dc.ll.Len() {
			t.Errorf("%s: Stats() = %d entries, %d bytes; the entries sum to %d, %d bytes", step, entries, bytes, dc.ll.Len(), sum)
		}
	}
	dc.Put(blocks[0], "a", col(100))
	dc.Put(blocks[0], "b", col(200))
	dc.Put(blocks[1], "a", col(300))
	check("insert")
	dc.Put(blocks[0], "a", col(1000)) // replace, larger
	check("replace with a larger column")
	dc.Put(blocks[0], "a", col(10)) // replace, smaller
	check("replace with a smaller column")
	dc.Put(blocks[0], "a", col(2000)) // replace, large enough to evict others
	check("replace that evicts")
	if entries, _ := dc.Stats(); entries >= 3 {
		t.Errorf("a 16 KB replacement left all %d entries in a 20 KB cache", entries)
	}
	dc.Put(blocks[2], "c", col(500))
	dc.InvalidateBlocks(blocks[:1])
	check("invalidate")
	dc.InvalidateBlocks(blocks)
	check("invalidate all")
	if entries, bytes := dc.Stats(); entries != 0 || bytes != 0 {
		t.Errorf("empty cache reports %d entries, %d bytes", entries, bytes)
	}

	var in column.Interner
	in.AppendSets([][]string{{"prod", "tier1"}, {"prod"}, nil}, 0, 0)
	set, err := in.Sets(3).Masks()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len("tags")) + 64 + int64(len("prod")+16+len("tier1")+16) + int64(set.MaskBytes())
	if got := columnBytes("tags", set); got != want || set.MaskBytes() != 3 {
		t.Errorf("string set priced at %d bytes (%d of masks), want %d (3 of masks)", got, set.MaskBytes(), want)
	}
}
