package codec

import (
	"encoding/binary"
	"fmt"
)

// Dictionary encoding replaces repeated strings with small integer indexes.
// Scuba's string columns (service names, error messages, hostnames) have low
// cardinality relative to row count, so a dictionary plus bit-packed indexes
// is the dominant source of the ~30x compression the paper reports (§2.1).
//
// The serialized dictionary blob (stored in the RBC's dictionary section,
// Figure 3) is:
//
//	[method byte][entry count varint]([len varint][bytes])*
//
// Entries are sorted so equal dictionaries serialize identically, which makes
// blob checksums stable across restarts.

// EncodeDict serializes the dictionary entries.
func EncodeDict(dst []byte, items []string) []byte {
	dst = append(dst, byte(MethodDict))
	dst = binary.AppendUvarint(dst, uint64(len(items)))
	for _, s := range items {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// DecodeDict parses a dictionary blob back into its entries. The entries
// are substrings of one copy of the blob, so a dictionary costs two
// allocations however many entries it has.
func DecodeDict(src []byte) ([]string, error) {
	if len(src) == 0 || Method(src[0]) != MethodDict {
		return nil, ErrMethod
	}
	src = src[1:]
	n, used, err := Uvarint(src)
	if err != nil {
		return nil, err
	}
	src = src[used:]
	if n > uint64(len(src)) { // each entry takes at least its length byte
		return nil, fmt.Errorf("%w: %d entries in %d bytes", ErrCorrupt, n, len(src))
	}
	text := string(src)
	items := make([]string, 0, n)
	pos := 0
	for i := uint64(0); i < n; i++ {
		l, used, err := Uvarint(src[pos:])
		if err != nil {
			return nil, fmt.Errorf("entry %d: %w", i, err)
		}
		pos += used
		if uint64(len(src)-pos) < l {
			return nil, fmt.Errorf("entry %d: %w: need %d bytes, have %d", i, ErrCorrupt, l, len(src)-pos)
		}
		items = append(items, text[pos:pos+int(l)])
		pos += int(l)
	}
	return items, nil
}
