package rowblock

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"scuba/internal/layout"
)

// Zone maps are the C-Store-style lightweight per-column summaries stamped
// on a sealed row block: min/max for numeric columns and a small Bloom
// filter over the dictionary for string and string-set columns. Query
// execution evaluates Eq/Lt/Le/Gt/Ge (numeric) and Eq/Contains (dictionary)
// predicates against the summary and skips the whole block — no LZ4 decode,
// no per-row work — when the summary proves no row can match.
//
// Zone maps are computed once at Seal time from the builder's values and
// dictionaries, and persisted in the block image.

// ZoneKind says what summary a column carries.
type ZoneKind uint8

// Zone kinds. ZoneNone means no summary: the block must be scanned.
const (
	ZoneNone ZoneKind = iota
	// ZoneInt summarizes an int64 (or time) column by [MinI, MaxI].
	ZoneInt
	// ZoneFloat summarizes a float64 column by [MinF, MaxF].
	ZoneFloat
	// ZoneDict summarizes a string column by a Bloom filter over its
	// dictionary entries.
	ZoneDict
	// ZoneSetDict is ZoneDict for a string-set column: the filter covers
	// every member of every row's set. A separate kind keeps pruning
	// type-aware — an equality predicate on a set column is an error, not a
	// prune, and vice versa for contains on a plain string column.
	ZoneSetDict
)

// zoneBloomBytes is the Bloom filter width: 256 bits comfortably covers the
// dictionaries of 65K-row blocks (low-cardinality by construction) at a
// false-positive rate that only costs an occasional unpruned block.
const zoneBloomBytes = 32

// ZoneMap is one column's summary.
type ZoneMap struct {
	Kind       ZoneKind
	MinI, MaxI int64
	MinF, MaxF float64
	Bloom      [zoneBloomBytes]byte
}

// bloomPositions derives two bit positions from one 64-bit FNV hash; two
// probes over 256 bits keep the filter simple and cheap to test.
func bloomPositions(s string) (uint32, uint32) {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck // fnv never fails
	v := h.Sum64()
	bits := uint32(zoneBloomBytes * 8)
	return uint32(v) % bits, uint32(v>>32) % bits
}

func (z *ZoneMap) bloomAdd(s string) {
	a, b := bloomPositions(s)
	z.Bloom[a/8] |= 1 << (a % 8)
	z.Bloom[b/8] |= 1 << (b % 8)
}

// MayContain reports whether the dictionary may contain s. False means s is
// provably absent from every row of the block; true is only a maybe.
func (z *ZoneMap) MayContain(s string) bool {
	if z == nil || (z.Kind != ZoneDict && z.Kind != ZoneSetDict) {
		return true
	}
	a, b := bloomPositions(s)
	return z.Bloom[a/8]&(1<<(a%8)) != 0 && z.Bloom[b/8]&(1<<(b%8)) != 0
}

// zoneOfInts summarizes raw int64 values.
func zoneOfInts(values []int64) ZoneMap {
	z := ZoneMap{Kind: ZoneInt, MinI: math.MaxInt64, MaxI: math.MinInt64}
	for _, v := range values {
		z.MinI = min(z.MinI, v)
		z.MaxI = max(z.MaxI, v)
	}
	return z
}

// zoneOfFloats summarizes raw float64 values. NaNs disable the summary:
// NaN breaks the ordering the prune rules rely on.
func zoneOfFloats(values []float64) ZoneMap {
	z := ZoneMap{Kind: ZoneFloat, MinF: math.Inf(1), MaxF: math.Inf(-1)}
	for _, v := range values {
		if math.IsNaN(v) {
			return ZoneMap{Kind: ZoneNone}
		}
		z.MinF = math.Min(z.MinF, v)
		z.MaxF = math.Max(z.MaxF, v)
	}
	return z
}

// zoneOfDict summarizes a string or set column by its dictionary: a Bloom
// filter holds a set, so each value once sets the bits every cell would.
func zoneOfDict(kind ZoneKind, dict []string) ZoneMap {
	z := ZoneMap{Kind: kind}
	for _, s := range dict {
		z.bloomAdd(s)
	}
	return z
}

// ---- Serialization (the zone-map section of the v2 block image) ----
//
// Per column: u8 kind, then for ZoneInt/ZoneFloat two u64 (min, max; int64
// or IEEE-754 bits), for ZoneDict zoneBloomBytes of filter. ZoneNone has no
// payload. The section length is implied by the schema's column count.

func appendZoneMap(dst []byte, z ZoneMap) []byte {
	dst = append(dst, byte(z.Kind))
	switch z.Kind {
	case ZoneInt:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(z.MinI))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(z.MaxI))
	case ZoneFloat:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(z.MinF))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(z.MaxF))
	case ZoneDict, ZoneSetDict:
		dst = append(dst, z.Bloom[:]...)
	}
	return dst
}

// parseZoneMap decodes one serialized zone map, returning the bytes used.
func parseZoneMap(b []byte) (ZoneMap, int, error) {
	if len(b) < 1 {
		return ZoneMap{}, 0, fmt.Errorf("%w: truncated zone map", ErrImageCorrupt)
	}
	z := ZoneMap{Kind: ZoneKind(b[0])}
	switch z.Kind {
	case ZoneNone:
		return z, 1, nil
	case ZoneInt, ZoneFloat:
		if len(b) < 17 {
			return ZoneMap{}, 0, fmt.Errorf("%w: truncated zone map", ErrImageCorrupt)
		}
		if z.Kind == ZoneInt {
			z.MinI = int64(binary.LittleEndian.Uint64(b[1:]))
			z.MaxI = int64(binary.LittleEndian.Uint64(b[9:]))
		} else {
			z.MinF = math.Float64frombits(binary.LittleEndian.Uint64(b[1:]))
			z.MaxF = math.Float64frombits(binary.LittleEndian.Uint64(b[9:]))
		}
		return z, 17, nil
	case ZoneDict, ZoneSetDict:
		if len(b) < 1+zoneBloomBytes {
			return ZoneMap{}, 0, fmt.Errorf("%w: truncated zone map", ErrImageCorrupt)
		}
		copy(z.Bloom[:], b[1:1+zoneBloomBytes])
		return z, 1 + zoneBloomBytes, nil
	default:
		return ZoneMap{}, 0, fmt.Errorf("%w: zone map kind %d", ErrImageCorrupt, b[0])
	}
}

// ColumnZone returns the named column's zone map, or nil when the column is
// absent or the block carries no summary for it. Callers must treat nil as
// "must scan".
func (b *RowBlock) ColumnZone(name string) *ZoneMap {
	i := b.schema.Index(name)
	if i < 0 || i >= len(b.zones) {
		return nil
	}
	if b.zones[i].Kind == ZoneNone {
		return nil
	}
	return &b.zones[i]
}

// sealZoneMap builds one column's summary; dict is a string or set column's.
func (cb *BatchColumn) sealZoneMap(dict []string) ZoneMap {
	switch cb.Type {
	case layout.TypeInt64, layout.TypeTime:
		return zoneOfInts(cb.Ints)
	case layout.TypeFloat64:
		return zoneOfFloats(cb.Floats)
	case layout.TypeString:
		return zoneOfDict(ZoneDict, dict)
	case layout.TypeStringSet:
		return zoneOfDict(ZoneSetDict, dict)
	default:
		return ZoneMap{Kind: ZoneNone}
	}
}
