package rowblock

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"scuba/internal/column"
	"scuba/internal/layout"
)

var updateGolden = flag.Bool("update", false, "rewrite the row and frame golden files under testdata")

// goldenRows is the canonical content of row-v1.golden and frame-v1.golden:
// every value type, a missing cell, an empty set, a negative time.
func goldenRows() []Row {
	return []Row{
		{Time: 1700000000, Cols: map[string]Value{
			"host": StringValue("web-01"), "latency_ms": Int64Value(37), "cpu": Float64Value(0.25),
			"tags": SetValue("prod", "tier1"),
		}},
		{Time: 1700000001, Cols: map[string]Value{
			"host": StringValue(""), "latency_ms": Int64Value(-4), "cpu": Float64Value(-1.5),
			"tags": SetValue(),
		}},
		{Time: -5, Cols: map[string]Value{
			"host": StringValue("db-7"), "tags": SetValue("x"),
		}},
	}
}

// golden returns the pinned bytes of a format fixture, regenerating them
// from canonical only under -update: old binaries wrote these bytes, so they
// must keep decoding, and new binaries must keep writing them.
func golden(t *testing.T, name string, canonical []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, canonical, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestGoldenRowPayloadV1(t *testing.T) {
	var enc []byte
	for _, r := range goldenRows() {
		var err error
		if enc, err = AppendRowPayload(enc, r); err != nil {
			t.Fatal(err)
		}
	}
	raw := golden(t, "row-v1.golden", enc)
	if !bytes.Equal(raw, enc) {
		t.Fatalf("row payload encoding drifted from row-v1.golden:\n got %x\nwant %x", enc, raw)
	}
	for i, want := range goldenRows() {
		got, n, err := DecodeRowPayload(raw)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("row %d = %+v, want %+v", i, got, want)
		}
		raw = raw[n:]
	}
	if len(raw) != 0 {
		t.Fatalf("%d trailing fixture bytes", len(raw))
	}
}

func TestGoldenFrameV1(t *testing.T) {
	b, err := FromRows(goldenRows())
	if err != nil {
		t.Fatal(err)
	}
	enc := b.AppendFrame(nil)
	raw := golden(t, "frame-v1.golden", enc)
	if !bytes.Equal(raw, enc) {
		t.Fatalf("frame encoding drifted from frame-v1.golden:\n got %x\nwant %x", enc, raw)
	}
	got, err := DecodeFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batchRows(got), batchRows(b)) {
		t.Fatalf("decoded frame = %+v, want %+v", got, b)
	}
	// The third row lacks cpu and latency_ms: absent cells are zero values.
	if c := got.Cols[0]; c.Name != "cpu" || c.Floats[2] != 0 {
		t.Fatalf("cols[0] = %+v", c)
	}
}

// batchRows turns a batch into rows with every cell present; nil and empty
// sets compare equal.
func batchRows(b *Batch) []Row {
	rows := make([]Row, b.Rows())
	for i := range rows {
		rows[i] = Row{Time: b.Times[i], Cols: make(map[string]Value, len(b.Cols))}
		for _, c := range b.Cols {
			v := Value{Type: c.Type}
			switch c.Type {
			case layout.TypeInt64, layout.TypeTime:
				v.Int = c.Ints[i]
			case layout.TypeFloat64:
				v.Float = c.Floats[i]
			case layout.TypeString:
				v.Str = c.Strs[i]
			case layout.TypeStringSet:
				v.Set = append([]string{}, c.Sets[i]...)
			}
			rows[i].Cols[c.Name] = v
		}
	}
	return rows
}

// randomRows draws rows over a drifting schema: columns come and go, so
// batches have missing cells, late-appearing columns and every value type.
func randomRows(rng *rand.Rand, n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		cols := map[string]Value{}
		if rng.Intn(4) > 0 {
			cols["svc"] = StringValue(fmt.Sprintf("svc-%d", rng.Intn(5)))
		}
		if rng.Intn(3) > 0 {
			cols["n"] = Int64Value(rng.Int63n(1000) - 500)
		}
		if rng.Intn(2) > 0 {
			cols["f"] = Float64Value(float64(rng.Intn(40)) / 4)
		}
		if rng.Intn(3) == 0 {
			set := make([]string, rng.Intn(3))
			for j := range set {
				set[j] = fmt.Sprintf("t%d", rng.Intn(4))
			}
			cols["tags"] = SetValue(set...)
		}
		if i > n/2 && rng.Intn(2) == 0 {
			cols["late"] = StringValue("x")
		}
		rows[i] = Row{Time: 1000 + int64(i) + rng.Int63n(3), Cols: cols}
	}
	return rows
}

func TestFrameRoundTripAndSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		rows := randomRows(rng, rng.Intn(200))
		b, err := FromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeFrame(b.AppendFrame(nil))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(batchRows(got), batchRows(b)) {
			t.Fatalf("round %d: frame round trip differs", round)
		}
		if len(rows) > 2 {
			i := rng.Intn(len(rows) / 2)
			j := i + rng.Intn(len(rows)-i)
			if !reflect.DeepEqual(batchRows(got.Slice(i, j)), batchRows(b)[i:j]) {
				t.Fatalf("round %d: Slice(%d,%d) differs", round, i, j)
			}
		}
	}
}

func TestFromRowsRejects(t *testing.T) {
	_, err := FromRows([]Row{
		{Time: 1, Cols: map[string]Value{"a": Int64Value(1)}},
		{Time: 2, Cols: map[string]Value{"a": StringValue("x")}},
	})
	if !errors.Is(err, ErrTypeConflict) {
		t.Fatalf("mixed types: %v, want ErrTypeConflict", err)
	}
	_, err = FromRows([]Row{{Time: 1, Cols: map[string]Value{TimeColumn: Int64Value(1)}}})
	if !errors.Is(err, ErrReservedName) {
		t.Fatalf("time column: %v, want ErrReservedName", err)
	}
	if _, err = FromRows([]Row{{Time: 1, Cols: map[string]Value{"a": {}}}}); err == nil {
		t.Fatal("typeless value accepted")
	}
}

// reseal recomputes a tampered frame's checksum, so the decoder sees
// CRC-valid garbage rather than a checksum mismatch.
func reseal(frame []byte) []byte {
	if len(frame) < 4 {
		return frame
	}
	body := frame[:len(frame)-4]
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.Checksum(body, castagnoli))
}

func TestDecodeFrameRejects(t *testing.T) {
	b, err := FromRows(goldenRows())
	if err != nil {
		t.Fatal(err)
	}
	valid := b.AppendFrame(nil)
	mutate := func(f func(frame []byte) []byte) []byte {
		return f(append([]byte(nil), valid...))
	}
	cases := map[string][]byte{
		"empty":     nil,
		"truncated": valid[:len(valid)-7],
		"bad magic": mutate(func(f []byte) []byte { f[0] ^= 1; return reseal(f) }),
		"version":   mutate(func(f []byte) []byte { f[4] = 9; return reseal(f) }),
		"bit flip":  mutate(func(f []byte) []byte { f[len(f)/2] ^= 0x10; return f }),
		// 2^40 rows announced by a frame a few dozen bytes long.
		"huge row count": reseal(append(append(valid[:5:5], 0x80, 0x80, 0x80, 0x80, 0x80, 0x20), valid[6:]...)),
		"trailing":       reseal(append(valid[:len(valid)-4:len(valid)-4], 0, 0, 0, 0, 0)),
	}
	for name, frame := range cases {
		if _, err := DecodeFrame(frame); !errors.Is(err, ErrBatchCorrupt) {
			t.Errorf("%s: %v, want ErrBatchCorrupt", name, err)
		}
	}

	// Hand-built frames: columns out of order, and one named "time".
	build := func(names ...string) []byte {
		f := binary.LittleEndian.AppendUint32(nil, frameMagic)
		f = append(f, frameVersion, 0, byte(len(names))) // 0 rows
		for _, n := range names {
			f = append(append(append(f, byte(len(n))), n...), byte(layout.TypeInt64))
		}
		return binary.LittleEndian.AppendUint32(f, crc32.Checksum(f, castagnoli))
	}
	if _, err := DecodeFrame(build("a", "b")); err != nil {
		t.Fatalf("well-formed hand-built frame: %v", err)
	}
	if _, err := DecodeFrame(build("b", "a")); !errors.Is(err, ErrBatchCorrupt) {
		t.Errorf("unsorted columns: %v", err)
	}
	if _, err := DecodeFrame(build("a", "a")); !errors.Is(err, ErrBatchCorrupt) {
		t.Errorf("duplicate columns: %v", err)
	}
	if _, err := DecodeFrame(build(TimeColumn)); !errors.Is(err, ErrReservedName) {
		t.Errorf("time column: %v", err)
	}
}

// heldBytes is the accounting rule spelled out cell by cell: 8 per time and
// number, length+1 per string, 1 plus length+1 per element for a set, over
// every cell the builder holds — backfilled and absent cells included.
// A string or set column's cells are read back from its interner.
func heldBytes(t *testing.T, b *Builder) int64 {
	t.Helper()
	n := len(b.times)
	sz := 8 * int64(n)
	for _, cb := range b.builders {
		switch cb.Type {
		case layout.TypeString:
			col := cb.dict.Strings(n)
			for i := range n {
				sz += int64(len(col.Value(i))) + 1
			}
		case layout.TypeStringSet:
			sets, err := cb.dict.Sets(n).Values()
			if err != nil {
				t.Fatal(err)
			}
			for _, set := range sets {
				sz++
				for _, s := range set {
					sz += int64(len(s)) + 1
				}
			}
		default:
			sz += 8 * int64(n)
		}
	}
	return sz
}

// blockRows decodes a sealed block back into rows (every cell present).
func blockRows(t *testing.T, rb *RowBlock) []Row {
	t.Helper()
	times, err := rb.Times(nil)
	if err != nil {
		t.Fatal(err)
	}
	bt := &Batch{Times: times}
	for _, f := range rb.Schema()[1:] {
		col, err := rb.DecodeColumn(f.Name)
		if err != nil {
			t.Fatal(err)
		}
		c := BatchColumn{Name: f.Name, Type: f.Type}
		switch col := col.(type) {
		case *column.Int64Column:
			c.Ints = col.Values
		case *column.Float64Column:
			c.Floats = col.Values
		case *column.StringColumn:
			for i := range times {
				c.Strs = append(c.Strs, col.Value(i))
			}
		case *column.StringSetColumn:
			if c.Sets, err = col.Values(); err != nil {
				t.Fatal(err)
			}
		}
		bt.Cols = append(bt.Cols, c)
	}
	return batchRows(bt)
}

// TestAppendBatchMatchesAddRow feeds the same batches — drifting schemas,
// late-appearing columns, missing cells — through AppendBatch whole and
// through AddRow one row at a time, under a byte cap low enough to seal
// often: both must seal at the same rows, hold the same columns and values,
// and after every append rawBytes must be exactly the size of the held cells.
func TestAppendBatchMatchesAddRow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 20; round++ {
		rows := randomRows(rng, 300+rng.Intn(300))
		byteCap := int64(2000 + rng.Intn(4000))

		var want, got []*RowBlock
		ref, b := NewBuilder(1), NewBuilder(1)
		ref.byteCap, b.byteCap = byteCap, byteCap
		seal := func(b **Builder, out *[]*RowBlock) {
			rb, err := (*b).Seal()
			if err != nil {
				t.Fatal(err)
			}
			*out = append(*out, rb)
			*b = NewBuilder(1)
			(*b).byteCap = byteCap
		}
		for off := 0; off < len(rows); {
			n := min(1+rng.Intn(120), len(rows)-off)
			bt, err := FromRows(rows[off : off+n])
			if err != nil {
				t.Fatal(err)
			}
			off += n
			// The frame stores an absent cell as a zero value, so the batch's
			// rows are dense: each carries every column of the batch.
			for _, r := range batchRows(bt) {
				if err := ref.AddRow(r); err != nil {
					t.Fatal(err)
				}
				if ref.RawBytes() != heldBytes(t, ref) {
					t.Fatalf("round %d: AddRow accounts %d bytes, holds %d", round, ref.RawBytes(), heldBytes(t, ref))
				}
				if ref.Full() {
					seal(&ref, &want)
				}
			}
			for bt.Rows() > 0 {
				took, err := b.AppendBatch(bt)
				if err != nil {
					t.Fatal(err)
				}
				if b.RawBytes() != heldBytes(t, b) {
					t.Fatalf("round %d: AppendBatch accounts %d bytes, holds %d", round, b.RawBytes(), heldBytes(t, b))
				}
				bt = bt.Slice(took, bt.Rows())
				if b.Full() {
					seal(&b, &got)
				}
			}
			if b.RawBytes() != ref.RawBytes() {
				t.Fatalf("round %d: %d raw bytes via batches, %d via rows", round, b.RawBytes(), ref.RawBytes())
			}
		}
		if ref.Rows() > 0 {
			seal(&ref, &want)
			seal(&b, &got)
		}
		if len(got) != len(want) || len(want) < 2 {
			t.Fatalf("round %d: %d blocks via batches, %d via rows", round, len(got), len(want))
		}
		for i := range want {
			if got[i].Header() != want[i].Header() {
				t.Fatalf("round %d block %d: header %+v, want %+v", round, i, got[i].Header(), want[i].Header())
			}
			if !reflect.DeepEqual(got[i].Schema(), want[i].Schema()) {
				t.Fatalf("round %d block %d: schema %v, want %v", round, i, got[i].Schema(), want[i].Schema())
			}
			if !reflect.DeepEqual(blockRows(t, got[i]), blockRows(t, want[i])) {
				t.Fatalf("round %d block %d: values differ", round, i)
			}
		}
	}
}

// TestBuilderVectorsGrowByDoubling pins how a builder's vectors grow: filled
// with 1,000-row batches, each vector is allocated at most 8 times (append's
// ~1.25× steps take ~14), and a full builder holds no cell past MaxRows. The
// "sparse" column is absent from every other batch, so backfill grows it too.
// A set column's rows are two vectors: its row ends and its varint buffer.
func TestBuilderVectorsGrowByDoubling(t *testing.T) {
	batches := thousandRowBatches(t, MaxRows)
	fill := func(batches []*Batch) *Builder {
		b := NewBuilder(1)
		for _, bt := range batches {
			if _, err := b.AppendBatch(bt); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	full := fill(batches)
	if full.Rows() != MaxRows {
		t.Fatalf("builder holds %d rows, want %d", full.Rows(), MaxRows)
	}
	vectors := 1 + len(full.builders)
	for _, cb := range full.builders {
		if cb.Type == layout.TypeStringSet {
			vectors++
		}
	}
	// The first batch creates the builder, its columns and one allocation per
	// vector; every allocation after it is a vector moving.
	first := testing.AllocsPerRun(2, func() { fill(batches[:1]) })
	all := testing.AllocsPerRun(2, func() { fill(batches) })
	if per := 1 + (all-first)/float64(vectors); per > 8 {
		t.Errorf("%.1f allocations per vector (%v filling, %v for the first batch, %d vectors), want <= 8", per, all, first, vectors)
	}
	for name, c := range builderCaps(full) {
		if c > MaxRows {
			t.Errorf("full builder's %s vector holds %d cells, want <= %d", name, c, MaxRows)
		}
	}
}

// thousandRowBatches returns rows rows of every type in 1,000-row batches,
// the last one short. A "sparse" column is in every other batch, from the
// first, so backfill grows it too.
func thousandRowBatches(t *testing.T, rows int) []*Batch {
	t.Helper()
	var batches []*Batch
	for start := 0; start < rows; start += 1000 {
		rs := make([]Row, min(1000, rows-start))
		for i := range rs {
			rs[i] = Row{Time: int64(start + i), Cols: map[string]Value{
				"n": Int64Value(int64(i)), "f": Float64Value(float64(i)),
				"s": StringValue("svc"), "tags": SetValue("a"),
			}}
			if start/1000%2 == 0 {
				rs[i].Cols["sparse"] = Int64Value(1)
			}
		}
		bt, err := FromRows(rs)
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, bt)
	}
	return batches
}

// builderCaps returns the capacity in rows of each of the builder's
// vectors, by column name: a string or set column's is its interner's.
func builderCaps(b *Builder) map[string]int {
	caps := map[string]int{TimeColumn: cap(b.times)}
	for name, cb := range b.builders {
		caps[name] = max(cap(cb.Ints), cap(cb.Floats), cb.dict.Cap())
	}
	return caps
}

// TestReplayedTailAllocatesOnce pins what Reserve buys crash replay: a
// builder reserved for the rows it is about to take and filled 1,000 rows at
// a time allocates each per-row vector once, at the reservation — a string
// column's ID vector and a set column's row ends included, and a set
// column's varint buffer at the first batch's bytes per row. The first batch
// allocates no more than it does in a builder that is not reserved; after
// it only a new dictionary entry could allocate, and these batches bring
// none, so nothing does. Every vector's capacity is the reservation, and a
// reservation past MaxRows sizes no vector past it.
func TestReplayedTailAllocatesOnce(t *testing.T) {
	for _, rows := range []int{30500, MaxRows} {
		batches := thousandRowBatches(t, rows)
		reserve := rows
		fill := func(batches []*Batch) *Builder {
			b := NewBuilder(1)
			b.Reserve(reserve)
			for _, bt := range batches {
				if _, err := b.AppendBatch(bt); err != nil {
					t.Fatal(err)
				}
			}
			return b
		}
		first := testing.AllocsPerRun(2, func() { fill(batches[:1]) })
		all := testing.AllocsPerRun(2, func() { fill(batches) })
		reserve = 0
		if unreserved := testing.AllocsPerRun(2, func() { fill(batches[:1]) }); first != unreserved {
			t.Errorf("%d rows: the first batch allocates %v times reserved, %v times not", rows, first, unreserved)
		}
		reserve = rows
		if all != first {
			t.Errorf("%d rows: %v allocations filling, %v for the first batch: a vector moved", rows, all, first)
		}
		full := fill(batches)
		if full.Rows() != rows {
			t.Fatalf("builder holds %d rows, want %d", full.Rows(), rows)
		}
		for name, c := range builderCaps(full) {
			if c != rows {
				t.Errorf("%d rows reserved: the %s vector holds %d cells", rows, name, c)
			}
		}
	}
	b := NewBuilder(1)
	b.Reserve(3 * MaxRows)
	if _, err := b.AppendBatch(thousandRowBatches(t, 1000)[0]); err != nil {
		t.Fatal(err)
	}
	for name, c := range builderCaps(b) {
		if c > MaxRows {
			t.Errorf("reserved past MaxRows: the %s vector holds %d cells, want <= %d", name, c, MaxRows)
		}
	}
}

// TestDecodeIntoReusedBatch decodes frames of drifting schemas, two set
// columns among them, one after another into one batch, as replay's ring
// does, and appends each to a builder before decoding the next; only the
// vector matching a column's type may hold cells. The builder must end up
// holding what a builder fed the frames' source batches holds. It keeps
// nothing of a batch — it interns each cell as it appends it — so a frame
// decoded over a batch already appended leaves the builder's rows as they
// were, and each set column's element array is reused across decodes like
// the vectors. Once warm, a decode allocates only strings: each column's
// name and the text of each string and set column.
func TestDecodeIntoReusedBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	frameRows := func(n int) []Row {
		rows := randomRows(rng, n)
		for i, r := range rows {
			if i%3 != 1 {
				r.Cols["labels"] = SetValue(fmt.Sprintf("l%d", rng.Intn(4)), "l")
			}
		}
		return rows
	}
	var reused Batch
	got, want := NewBuilder(1), NewBuilder(1)
	for range 200 {
		bt, err := FromRows(frameRows(1 + rng.Intn(12)))
		if err != nil {
			t.Fatal(err)
		}
		if err := reused.Decode(bt.AppendFrame(nil)); err != nil {
			t.Fatal(err)
		}
		for _, c := range reused.Cols {
			if filled := min(len(c.Ints), 1) + min(len(c.Floats), 1) + min(len(c.Strs), 1) + min(len(c.Sets), 1); filled != 1 {
				t.Fatalf("column %q (%v) holds cells in %d vectors, want only its type's", c.Name, c.Type, filled)
			}
		}
		if _, err := want.AppendBatch(bt); err != nil {
			t.Fatal(err)
		}
		if _, err := got.AppendBatch(&reused); err != nil {
			t.Fatal(err)
		}
	}
	gotBlock, err := got.Seal()
	if err != nil {
		t.Fatal(err)
	}
	wantBlock, err := want.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(blockRows(t, gotBlock), blockRows(t, wantBlock)) {
		t.Fatal("a builder fed one reused batch holds other rows than one fed the source batches")
	}

	a, err := FromRows(frameRows(40))
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromRows(frameRows(40))
	if err != nil {
		t.Fatal(err)
	}
	held := NewBuilder(1)
	if err := reused.Decode(a.AppendFrame(nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := held.AppendBatch(&reused); err != nil {
		t.Fatal(err)
	}
	if err := reused.Decode(b.AppendFrame(nil)); err != nil {
		t.Fatal(err)
	}
	if sealed, err := held.Seal(); err != nil || !reflect.DeepEqual(blockRows(t, sealed), batchRows(a)) {
		t.Fatalf("a builder that appended frame A, sealed after frame B was decoded over its batch, holds other rows than A's: %v", err)
	}

	gold, err := FromRows(goldenRows()) // four columns, one of them strings and one sets
	if err != nil {
		t.Fatal(err)
	}
	frame := gold.AppendFrame(nil)
	if allocs := testing.AllocsPerRun(10, func() {
		if err := reused.Decode(frame); err != nil {
			t.Fatal(err)
		}
	}); allocs != 4+1+1 {
		t.Errorf("a warm decode allocates %v times, want 6", allocs)
	}
}

func TestAppendBatchTypeConflictAppliesNothing(t *testing.T) {
	b := NewBuilder(1)
	if err := b.AddRow(Row{Time: 1, Cols: map[string]Value{"a": Int64Value(1)}}); err != nil {
		t.Fatal(err)
	}
	bt, err := FromRows([]Row{{Time: 2, Cols: map[string]Value{"a": StringValue("x"), "b": Int64Value(2)}}})
	if err != nil {
		t.Fatal(err)
	}
	raw := b.RawBytes()
	if _, err := b.AppendBatch(bt); !errors.Is(err, ErrTypeConflict) {
		t.Fatalf("err = %v, want ErrTypeConflict", err)
	}
	if b.Rows() != 1 || b.RawBytes() != raw || len(b.names) != 1 {
		t.Fatalf("rejected batch left state behind: rows=%d raw=%d names=%v", b.Rows(), b.RawBytes(), b.names)
	}
}

// FuzzBatchDecode feeds arbitrary bytes — and the same bytes resealed under
// a valid checksum, so the structure checks behind the CRC are reached — to
// the frame decoder: garbage is ErrBatchCorrupt (or ErrReservedName), never
// a panic or an allocation sized by an untrusted count, and whatever decodes
// survives a re-encode. Decoding into a batch reused across inputs, failed
// decodes included, must give what a new batch does.
func FuzzBatchDecode(f *testing.F) {
	b, err := FromRows(goldenRows())
	if err != nil {
		f.Fatal(err)
	}
	valid := b.AppendFrame(nil)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("SBF1"))
	f.Add(append(append(valid[:5:5], 0xff, 0xff, 0xff, 0xff, 0x0f), valid[6:]...))
	var reused Batch
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, frame := range [][]byte{data, reseal(data)} {
			got, err := DecodeFrame(frame)
			if rerr := reused.Decode(frame); (rerr == nil) != (err == nil) {
				t.Fatalf("decoding into a reused batch: %v; into a new one: %v", rerr, err)
			}
			if err == nil && !reflect.DeepEqual(batchRows(got), batchRows(&reused)) {
				t.Fatal("a reused batch decodes other rows than a new one")
			}
			if err != nil {
				if !errors.Is(err, ErrBatchCorrupt) && !errors.Is(err, ErrReservedName) {
					t.Fatalf("unexpected error class: %v", err)
				}
				continue
			}
			again, err := DecodeFrame(got.AppendFrame(nil))
			if err != nil {
				t.Fatalf("re-encoded frame fails decode: %v", err)
			}
			if !reflect.DeepEqual(batchRows(got), batchRows(again)) {
				t.Fatal("batch differs after re-encode cycle")
			}
		}
	})
}
