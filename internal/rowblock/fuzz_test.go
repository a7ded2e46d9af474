package rowblock

import "testing"

// FuzzDecodeImage feeds arbitrary bytes to the block-image parser: it must
// reject garbage with an error, never panic or over-read. Shared memory and
// disk contents pass through this parser on every restart.
func FuzzDecodeImage(f *testing.F) {
	b := NewBuilder(1)
	for i := 0; i < 100; i++ {
		b.AddRow(Row{Time: int64(i), Cols: map[string]Value{ //nolint:errcheck
			"s": StringValue("x"), "n": Int64Value(int64(i)),
		}})
	}
	rb, err := b.Seal()
	if err != nil {
		f.Fatal(err)
	}
	valid := rb.AppendImage(nil)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(nil))
	f.Add([]byte{0x52, 0x42, 0x4b, 0x31}) // bare magic
	f.Fuzz(func(t *testing.T, img []byte) {
		rb, _, err := DecodeImage(img)
		if err == nil && rb == nil {
			t.Fatal("nil block without error")
		}
		if err == nil {
			// A successfully parsed block must be internally consistent.
			if _, terr := rb.Times(nil); terr != nil {
				t.Fatalf("accepted block has broken time column: %v", terr)
			}
		}
	})
}
