package column

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"scuba/internal/codec"
	"scuba/internal/layout"
)

func mustParse(t *testing.T, blob []byte) *layout.RBC {
	t.Helper()
	r, err := layout.Parse(blob)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return r
}

func TestInt64RoundTrip(t *testing.T) {
	cases := [][]int64{
		nil,
		{0},
		{1, 2, 3, 4, 5},
		{math.MaxInt64, math.MinInt64, 0, -1, 1},
	}
	for _, vals := range cases {
		blob := EncodeInt64(layout.TypeInt64, vals)
		got, err := DecodeInt64(nil, mustParse(t, blob))
		if err != nil {
			t.Fatalf("decode %v: %v", vals, err)
		}
		if len(got) == 0 && len(vals) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, vals) {
			t.Errorf("round trip %v -> %v", vals, got)
		}
	}
}

func TestTimeColumnType(t *testing.T) {
	vals := []int64{1700000000, 1700000001, 1700000002}
	blob := EncodeInt64(layout.TypeTime, vals)
	r := mustParse(t, blob)
	if r.Type() != layout.TypeTime {
		t.Errorf("Type = %v, want TypeTime", r.Type())
	}
	col, err := Decode(r)
	if err != nil {
		t.Fatal(err)
	}
	ic, ok := col.(*Int64Column)
	if !ok {
		t.Fatalf("Decode returned %T", col)
	}
	if ic.Type() != layout.TypeTime {
		t.Errorf("column Type = %v", ic.Type())
	}
	if !reflect.DeepEqual(ic.Values, vals) {
		t.Errorf("values = %v", ic.Values)
	}
}

func TestEncodeInt64RejectsWrongType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("EncodeInt64 with TypeString did not panic")
		}
	}()
	EncodeInt64(layout.TypeString, []int64{1})
}

func TestFloat64RoundTrip(t *testing.T) {
	cases := [][]float64{
		nil,
		{0},
		{1.5, -2.25, 3.75},
		{math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64},
	}
	for _, vals := range cases {
		blob := EncodeFloat64(vals)
		got, err := DecodeFloat64(mustParse(t, blob))
		if err != nil {
			t.Fatalf("decode %v: %v", vals, err)
		}
		if len(got) == 0 && len(vals) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, vals) {
			t.Errorf("round trip %v -> %v", vals, got)
		}
	}
}

func TestFloat64NaN(t *testing.T) {
	blob := EncodeFloat64([]float64{math.NaN()})
	got, err := DecodeFloat64(mustParse(t, blob))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got[0]) {
		t.Errorf("NaN round trip = %v", got[0])
	}
}

func TestStringRoundTrip(t *testing.T) {
	cases := [][]string{
		nil,
		{""},
		{"a"},
		{"web", "web", "ads", "web", "search", "ads"},
	}
	for _, vals := range cases {
		blob, _ := stringsOf(vals).EncodeStrings(len(vals))
		col, err := DecodeString(mustParse(t, blob))
		if err != nil {
			t.Fatalf("decode %v: %v", vals, err)
		}
		if col.Len() != len(vals) {
			t.Fatalf("Len = %d, want %d", col.Len(), len(vals))
		}
		for i, want := range vals {
			if got := col.Value(i); got != want {
				t.Errorf("row %d = %q, want %q", i, got, want)
			}
		}
	}
}

func TestStringDictDeduplication(t *testing.T) {
	vals := make([]string, 10000)
	for i := range vals {
		vals[i] = fmt.Sprintf("service-%d", i%4)
	}
	blob, _ := stringsOf(vals).EncodeStrings(len(vals))
	// 10000 strings with 4 distinct values: dictionary ~60 bytes, IDs 2 bits
	// each = 2.5 KB. Anything near raw size means dedup is broken.
	if len(blob) > 4096 {
		t.Errorf("low-cardinality column encoded to %d bytes", len(blob))
	}
	col, err := DecodeString(mustParse(t, blob))
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Dict) != 4 {
		t.Errorf("dictionary has %d entries, want 4", len(col.Dict))
	}
}

func TestStringSetRoundTrip(t *testing.T) {
	cases := [][][]string{
		nil,
		{{}},
		{{"a"}},
		{{"x", "y"}, {}, {"y"}, {"x", "y", "z"}},
	}
	for _, vals := range cases {
		blob, _ := setsOf(vals).EncodeSets(len(vals))
		col, err := DecodeStringSet(mustParse(t, blob))
		if err != nil {
			t.Fatalf("decode %v: %v", vals, err)
		}
		if col.Len() != len(vals) {
			t.Fatalf("Len = %d, want %d", col.Len(), len(vals))
		}
		got, err := col.Values()
		if err != nil {
			t.Fatalf("walk %v: %v", vals, err)
		}
		for i, want := range vals {
			if len(got[i]) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("row %d = %v, want %v", i, got[i], want)
			}
		}
	}
}

// selectAll is the selection that holds every row of an n-row block.
func selectAll(n int) []uint32 {
	sel := make([]uint32, n)
	for i := range sel {
		sel[i] = uint32(i)
	}
	return sel
}

// TestStringSetSelectContains pins the contains kernel on a sealed column
// (rows under LZ4, aliased) and on an unsealed one (rows built in place):
// whole and partial selections, in place and into a second slice, a member
// the dictionary lacks, and IDs and counts that take more than one byte.
func TestStringSetSelectContains(t *testing.T) {
	vals := make([][]string, 1000)
	for i := range vals {
		vals[i] = []string{fmt.Sprintf("t%d", i%300), "all"}
		if i%7 == 0 {
			vals[i] = nil
		}
		if i == 500 {
			for j := 0; j < 200; j++ { // a count past one varint byte
				vals[i] = append(vals[i], fmt.Sprintf("t%d", j))
			}
		}
	}
	blob, _ := setsOf(vals).EncodeSets(len(vals))
	sealed, err := DecodeStringSet(mustParse(t, blob))
	if err != nil {
		t.Fatal(err)
	}
	if !sealed.packed {
		t.Fatal("fixture did not compress: the sealed column never un-LZ4s")
	}
	for name, col := range map[string]*StringSetColumn{"sealed": sealed, "unsealed": setsOf(vals).Sets(len(vals))} {
		for _, member := range []string{"all", "t0", "t299", "t150", "absent"} {
			for _, step := range []int{1, 3} {
				var sel, want []uint32
				for i := 0; i < len(vals); i += step {
					sel = append(sel, uint32(i))
					for _, s := range vals[i] {
						if s == member {
							want = append(want, uint32(i))
							break
						}
					}
				}
				got, err := col.SelectContains(member, sel, nil)
				if err != nil {
					t.Fatalf("%s %q step %d: %v", name, member, step, err)
				}
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Errorf("%s %q step %d: %d rows, want %d", name, member, step, len(got), len(want))
				}
				inPlace, err := col.SelectContains(member, sel, sel)
				if err != nil || len(inPlace) != len(want) || (len(want) > 0 && !reflect.DeepEqual(inPlace, want)) {
					t.Errorf("%s %q step %d in place: %v, %d rows, want %d", name, member, step, err, len(inPlace), len(want))
				}
			}
		}
		if _, err := col.SelectContains("all", []uint32{uint32(len(vals))}, nil); err == nil {
			t.Errorf("%s: selecting a row past the column succeeded", name)
		}
	}
}

// TestStringSetMalformedRows pins that rows the data cannot back come back
// as errors from the walks and from the masks' build, never a panic: the
// column is opened lazily, so those are where a damaged data section is met.
func TestStringSetMalformedRows(t *testing.T) {
	dict := codec.EncodeDict(nil, []string{"a", "b"})
	cases := map[string][]byte{
		"truncated ids":   {2, 0},
		"truncated count": {1, 0, 0x80},
		"count past data": {9, 0, 1},
		"long varint id":  {1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
	}
	for name, data := range cases {
		blob := layout.Build(layout.TypeStringSet, codec.NewCode(codec.MethodDict, codec.MethodRaw), 2, 2, dict, data, uint64(len(data)))
		col, err := DecodeStringSet(mustParse(t, blob))
		if err != nil {
			continue // refused at open is as good
		}
		if _, err := col.Values(); err == nil {
			t.Errorf("%s: Values succeeded", name)
		}
		if _, err := col.SelectContains("a", selectAll(2), nil); err == nil {
			t.Errorf("%s: SelectContains succeeded", name)
		}
		if _, err := col.Masks(); err == nil {
			t.Errorf("%s: Masks succeeded", name)
		}
	}
	// An ID outside the dictionary, bytes past the last row or short of it
	// are for Each and the masks to report: contains compares IDs and stops
	// at the last selected row.
	for name, data := range map[string][]byte{
		"id out of range":       {1, 7, 0},
		"id equal to dict size": {1, 2, 0},
		"id in a long varint":   {1, 0x82, 0x00, 0},
		"trailing bytes":        {0, 0, 0},
		"rows missing":          {1, 0},
	} {
		blob := layout.Build(layout.TypeStringSet, codec.NewCode(codec.MethodDict, codec.MethodRaw), 2, 2, dict, data, uint64(len(data)))
		col, err := DecodeStringSet(mustParse(t, blob))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := col.Values(); err == nil {
			t.Errorf("%s: Values succeeded", name)
		}
		if _, err := col.Masks(); err == nil {
			t.Errorf("%s: Masks succeeded", name)
		}
	}
}

// TestSetMasksBuild pins the masks of rows the byte-at-a-time path cannot
// take — a count past one varint byte, an ID in a longer varint than it
// needs — as the walk reads them, and that a dictionary past 64 entries has
// no masks. Rows the data cannot back are TestStringSetMalformedRows'.
func TestSetMasksBuild(t *testing.T) {
	long := binary.AppendUvarint(nil, 200) // a set of 200 "b"s, then {a} and {}
	for i := 0; i < 200; i++ {
		long = append(long, 1)
	}
	long = append(long, 1, 0x80, 0x00, 0) // {a}, its ID in two bytes; {}
	blob := layout.Build(layout.TypeStringSet, codec.NewCode(codec.MethodDict, codec.MethodRaw), 3, 2,
		codec.EncodeDict(nil, []string{"a", "b"}), long, uint64(len(long)))
	col, err := DecodeStringSet(mustParse(t, blob))
	if err != nil {
		t.Fatal(err)
	}
	m, err := col.Masks()
	if err != nil {
		t.Fatal(err)
	}
	for member, want := range map[string][]uint32{"a": {1}, "b": {0}, "c": nil} {
		if got, err := m.SelectContains(member, selectAll(3), nil); err != nil || len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Errorf("rows containing %q = %v, %v; want %v", member, got, err, want)
		}
	}
	wide := make([][]string, 65)
	for i := range wide {
		wide[i] = []string{fmt.Sprintf("t%d", i)}
	}
	blob, _ = setsOf(wide).EncodeSets(len(wide))
	if col, err = DecodeStringSet(mustParse(t, blob)); err != nil {
		t.Fatal(err)
	}
	if m, err := col.Masks(); m != nil || err != nil {
		t.Errorf("a 65-entry dictionary built masks (%v)", err)
	}
}

func TestDecodeGeneric(t *testing.T) {
	strs, _ := stringsOf([]string{"a", "b"}).EncodeStrings(2)
	sets, _ := setsOf([][]string{{"a"}}).EncodeSets(1)
	blobs := map[layout.ValueType][]byte{
		layout.TypeInt64:     EncodeInt64(layout.TypeInt64, []int64{1, 2}),
		layout.TypeFloat64:   EncodeFloat64([]float64{1.5}),
		layout.TypeString:    strs,
		layout.TypeStringSet: sets,
	}
	for vt, blob := range blobs {
		col, err := Decode(mustParse(t, blob))
		if err != nil {
			t.Fatalf("%v: %v", vt, err)
		}
		if col.Type() != vt {
			t.Errorf("Decode(%v).Type() = %v", vt, col.Type())
		}
	}
}

func TestDecodeTypeMismatch(t *testing.T) {
	intBlob := mustParse(t, EncodeInt64(layout.TypeInt64, []int64{1}))
	str, _ := stringsOf([]string{"a"}).EncodeStrings(1)
	strBlob := mustParse(t, str)
	if _, err := DecodeString(intBlob); err == nil {
		t.Error("DecodeString on int column succeeded")
	}
	if _, err := DecodeInt64(nil, strBlob); err == nil {
		t.Error("DecodeInt64 on string column succeeded")
	}
	if _, err := DecodeFloat64(intBlob); err == nil {
		t.Error("DecodeFloat64 on int column succeeded")
	}
	if _, err := DecodeStringSet(strBlob); err == nil {
		t.Error("DecodeStringSet on string column succeeded")
	}
}

func TestLZ4AppliedWhenUseful(t *testing.T) {
	// Highly repetitive float data: LZ4 stage should engage.
	vals := make([]float64, 8192)
	for i := range vals {
		vals[i] = 42.0
	}
	blob := EncodeFloat64(vals)
	r := mustParse(t, blob)
	if r.Code().Compressor() != codec.MethodLZ4 {
		t.Errorf("compressor = %v, want lz4", r.Code().Compressor())
	}
	if len(blob) > 2048 {
		t.Errorf("constant float column encoded to %d bytes", len(blob))
	}
	// Random float data: LZ4 stage should be skipped.
	rng := rand.New(rand.NewSource(3))
	rvals := make([]float64, 8192)
	for i := range rvals {
		rvals[i] = rng.NormFloat64()
	}
	rblob := EncodeFloat64(rvals)
	rr := mustParse(t, rblob)
	if rr.Code().Compressor() == codec.MethodLZ4 {
		t.Error("lz4 applied to incompressible floats")
	}
}

func TestAtLeastTwoMethodsPerColumn(t *testing.T) {
	// The paper: "at least two methods applied to each column" (§2.1).
	// Verify the compression codes on representative columns.
	times := make([]int64, 65536)
	for i := range times {
		times[i] = 1700000000 + int64(i/3)
	}
	blob := EncodeInt64(layout.TypeTime, times)
	r := mustParse(t, blob)
	if r.Code().Transform() != codec.MethodDeltaBP {
		t.Errorf("time transform = %v", r.Code().Transform())
	}
	if r.Code().Compressor() != codec.MethodLZ4 {
		t.Errorf("time compressor = %v, want lz4 on top of delta+bitpack", r.Code().Compressor())
	}

	strs := make([]string, 65536)
	for i := range strs {
		strs[i] = fmt.Sprintf("host-%d", i%100)
	}
	sblob, _ := stringsOf(strs).EncodeStrings(len(strs))
	sr := mustParse(t, sblob)
	if sr.Code().Transform() != codec.MethodDict {
		t.Errorf("string transform = %v", sr.Code().Transform())
	}
}

func TestInt64Property(t *testing.T) {
	f := func(vals []int64) bool {
		blob := EncodeInt64(layout.TypeInt64, vals)
		r, err := layout.Parse(blob)
		if err != nil {
			return false
		}
		got, err := DecodeInt64(nil, r)
		if err != nil {
			return false
		}
		if len(vals) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringProperty(t *testing.T) {
	f := func(vals []string) bool {
		blob, _ := stringsOf(vals).EncodeStrings(len(vals))
		r, err := layout.Parse(blob)
		if err != nil {
			return false
		}
		col, err := DecodeString(r)
		if err != nil || col.Len() != len(vals) {
			return false
		}
		for i, want := range vals {
			if col.Value(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Property(t *testing.T) {
	f := func(vals []float64) bool {
		blob := EncodeFloat64(vals)
		r, err := layout.Parse(blob)
		if err != nil {
			return false
		}
		got, err := DecodeFloat64(r)
		if err != nil {
			return false
		}
		if len(vals) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompressionRatioLogTable(t *testing.T) {
	// A service-log-shaped column mix should compress well end to end;
	// the paper reports ~30x on production data (E7 quantifies this).
	n := 65536
	times := make([]int64, n)
	hosts := make([]string, n)
	for i := 0; i < n; i++ {
		times[i] = 1700000000 + int64(i/100)
		hosts[i] = fmt.Sprintf("host-%03d.prn1", i%200)
	}
	rawSize := n*8 + n*len(hosts[0])
	hostBlob, _ := stringsOf(hosts).EncodeStrings(len(hosts))
	encSize := len(EncodeInt64(layout.TypeTime, times)) + len(hostBlob)
	ratio := float64(rawSize) / float64(encSize)
	if ratio < 10 {
		t.Errorf("compression ratio %.1fx, want >=10x on log-like data", ratio)
	}
}
