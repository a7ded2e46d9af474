package column

import (
	"encoding/binary"
	"fmt"
	"testing"

	"scuba/internal/codec"
	"scuba/internal/layout"
)

// FuzzColumnDecode feeds arbitrary bytes, through the structure-only parse the
// shm view uses, to Decode and to the four typed decoders. Both restart modes
// decode columns only a segment-wide CRC has vouched for, so whatever gets
// this far must come back as an error or as a column as long as its header
// says, every row of it readable (a string set, whose rows stay encoded, may
// instead report the damage from the walk that meets it, and its masks must
// fail or agree with that walk) — never a panic, and never an allocation
// sized by a count the bytes present cannot back (the decoders check the
// header's counts against the data first; lz4.Decompress and the bit-pack cap
// do the same a layer down). A hostile count that slips through shows up here
// as the out-of-memory crash of a fuzz worker.
func FuzzColumnDecode(f *testing.F) {
	ints := make([]int64, 200)
	floats := make([]float64, 200)
	strs := make([]string, 200)
	sets := make([][]string, 200)
	for i := range ints {
		ints[i] = int64(i*i) - 5000
		floats[i] = float64(i) * 0.25
		strs[i] = fmt.Sprintf("svc-%d", i%7)
		sets[i] = []string{fmt.Sprintf("t%d", i%5), "all"}
	}
	// Set columns on mask widths' edges: 9 entries (16-bit masks), 33 (64-bit)
	// and 65 (no masks, the walk).
	wideSets := func(width int) [][]string {
		out := make([][]string, 100)
		for i := range out {
			out[i] = []string{fmt.Sprintf("t%d", i%width), "all"}
		}
		return out
	}
	encodeSets := func(v [][]string) []byte { blob, _ := setsOf(v).EncodeSets(len(v)); return blob }
	encodeStrings := func(v []string) []byte { blob, _ := stringsOf(v).EncodeStrings(len(v)); return blob }
	valid := [][]byte{
		encodeSets(wideSets(8)),
		encodeSets(wideSets(32)),
		encodeSets(wideSets(64)),
		EncodeInt64(layout.TypeInt64, ints),
		EncodeInt64(layout.TypeTime, ints[:3]),
		EncodeInt64(layout.TypeInt64, make([]int64, 100)), // zero-width bit packing
		EncodeFloat64(floats),
		encodeStrings(strs),
		encodeStrings(nil),
		encodeSets(sets),
	}
	for _, blob := range valid {
		f.Add(blob)
		f.Add(blob[:len(blob)-1])
		// The header and footer claim far more than the data holds.
		for _, off := range []int{16, 24, len(blob) - layout.FooterSize} {
			hostile := append([]byte(nil), blob...)
			binary.LittleEndian.PutUint64(hostile[off:], 1<<40)
			f.Add(hostile)
		}
	}
	// A float column whose header claims 2^61 items over no data: the count
	// times eight wraps to zero, the length the data has (found by this
	// target; DecodeFloat64 used to size its output by the claim and panic).
	wrapped := EncodeFloat64(nil)
	binary.LittleEndian.PutUint64(wrapped[16:], 1<<61)
	f.Add(wrapped)
	// A set row whose ID is the dictionary's size, and one with a byte past
	// the last row.
	for _, data := range [][]byte{{2, 1, 2}, {1, 0, 0}} {
		f.Add(layout.Build(layout.TypeStringSet, codec.NewCode(codec.MethodDict, codec.MethodRaw),
			1, 2, codec.EncodeDict(nil, []string{"a", "all"}), data, uint64(len(data))))
	}
	// Row ids into a dictionary with no entries.
	f.Add(layout.Build(layout.TypeString, codec.NewCode(codec.MethodDict, codec.MethodRaw),
		2, 0, codec.EncodeDict(nil, nil), codec.EncodeBitPackU64(nil, []uint64{0, 0}), 3))
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, blob []byte) {
		r, err := layout.ParseTrusted(blob)
		if err != nil {
			return
		}
		col, err := Decode(r)
		if err == nil {
			if col.Len() != r.NumItems() || col.Type() != r.Type() {
				t.Fatalf("decoded %d rows of %v, header says %d of %v", col.Len(), col.Type(), r.NumItems(), r.Type())
			}
			switch c := col.(type) {
			case *StringColumn:
				for i := 0; i < c.Len(); i++ {
					_ = c.Value(i)
				}
			case *StringSetColumn:
				// A set's rows stay encoded: the walks are where a damaged
				// data section is met, and they must agree on what they saw.
				vals, verr := c.Values()
				sel := make([]uint32, c.Len())
				for i := range sel {
					sel[i] = uint32(i)
				}
				hit, cerr := c.SelectContains("all", sel, nil)
				if verr == nil {
					want := 0
					for _, set := range vals {
						for _, s := range set {
							if s == "all" {
								want++
								break
							}
						}
					}
					if cerr != nil || len(hit) != want {
						t.Fatalf("contains found %d rows (%v), the rows hold %d", len(hit), cerr, want)
					}
				}
				// The masks validate as the walk does, and agree with it.
				m, merr := c.Masks()
				switch {
				case len(c.Dict) > 64:
					if m != nil || merr != nil {
						t.Fatalf("masks over a %d-entry dictionary (%v)", len(c.Dict), merr)
					}
				case (merr == nil) != (verr == nil):
					t.Fatalf("masks built with %v, the rows read with %v", merr, verr)
				case merr == nil && len(c.Dict) > 0:
					// "all" and the entry with the mask's highest bit.
					for _, member := range []string{"all", c.Dict[len(c.Dict)-1]} {
						walked, werr := c.SelectContains(member, sel, nil)
						masked, err := m.SelectContains(member, sel, nil)
						if err != nil || werr != nil || len(masked) != len(walked) {
							t.Fatalf("masked contains %q found %d rows (%v), the walk %d (%v)", member, len(masked), err, len(walked), werr)
						}
					}
				}
			}
		}
		// The typed decoders refuse a column of another type and otherwise
		// agree with Decode on whether the blob is one.
		_, ierr := DecodeInt64(nil, r)
		_, ferr := DecodeFloat64(r)
		_, serr := DecodeString(r)
		_, xerr := DecodeStringSet(r)
		ok := 0
		for _, e := range []error{ierr, ferr, serr, xerr} {
			if e == nil {
				ok++
			}
		}
		if want := map[bool]int{true: 1, false: 0}[err == nil]; ok != want {
			t.Fatalf("Decode says %v; typed decoders: int %v, float %v, string %v, set %v", err, ierr, ferr, serr, xerr)
		}
	})
}
