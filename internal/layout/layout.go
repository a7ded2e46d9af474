// Package layout defines the binary layout of a row block column (RBC), the
// unit of storage and of restart-time copying in Scuba (Figure 3).
//
// An RBC is a single contiguous blob. The header starts at the blob's base
// address and every other location — dictionary, data, footer — is an offset
// from that base. Because the blob contains no absolute pointers it can be
// relocated between heap and shared memory with one copy; only the pointer to
// the blob (held by the enclosing row block) changes (§2.1, §4.4). BerkeleyDB
// uses the same base-plus-offset technique for its pointers.
//
// Blob layout, little-endian:
//
//	offset  size  field
//	0       4     magic "RBC1"
//	4       2     layout version
//	6       1     compression code (codec.Code: transform | compressor<<4)
//	7       1     value type
//	8       8     number of bytes used by the column (= len(blob))
//	16      8     number of items in the column
//	24      8     number of items in the dictionary
//	32      8     offset at which dictionary is found
//	40      8     offset at which data is found
//	48      8     offset at which footer is found
//	56      ...   dictionary section (may be empty)
//	...     ...   data section
//	footer  8     uncompressed length of the data section
//	+8      4     CRC-32C checksum of blob[0 : footerOffset+8]
package layout

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"scuba/internal/codec"
)

// Magic identifies an RBC blob ("RBC1" little-endian).
const Magic uint32 = 0x31434252

// Version is the current RBC layout version. Bump on any layout change; the
// restore path rejects mismatched versions and falls back to disk recovery.
const Version uint16 = 1

// Header field offsets and sizes.
const (
	HeaderSize = 56
	FooterSize = 12 // uncompressed length (8) + checksum (4)

	offMagic        = 0
	offVersion      = 4
	offCompression  = 6
	offValueType    = 7
	offTotalBytes   = 8
	offNumItems     = 16
	offNumDictItems = 24
	offDictOffset   = 32
	offDataOffset   = 40
	offFooterOffset = 48
)

// ValueType identifies the logical type of a column's values.
type ValueType uint8

// Column value types supported by the engine. TypeTime is the required
// per-row unix timestamp column; it is an int64 with a dedicated type code so
// readers can find it without consulting the schema by name.
const (
	TypeInvalid ValueType = iota
	TypeInt64
	TypeFloat64
	TypeString
	TypeStringSet
	TypeTime
)

func (t ValueType) String() string {
	switch t {
	case TypeInt64:
		return "int64"
	case TypeFloat64:
		return "float64"
	case TypeString:
		return "string"
	case TypeStringSet:
		return "stringset"
	case TypeTime:
		return "time"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// castagnoli is the CRC-32C table used for all RBC checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors returned when parsing RBC blobs.
var (
	ErrTooShort = errors.New("layout: blob shorter than header")
	ErrMagic    = errors.New("layout: bad magic")
	ErrVersion  = errors.New("layout: layout version mismatch")
	ErrBounds   = errors.New("layout: section offsets out of bounds")
	ErrChecksum = errors.New("layout: checksum mismatch")
	ErrSize     = errors.New("layout: recorded size differs from blob size")
)

// Build assembles an RBC blob from its encoded sections. dict may be nil for
// columns without a dictionary. uncompressedLen records the size of the data
// section before the byte-level compressor ran (equal to len(data) when no
// compressor was applied); decoders need it to size the LZ4 output buffer.
func Build(vt ValueType, code codec.Code, numItems, numDictItems uint64, dict, data []byte, uncompressedLen uint64) []byte {
	dictOffset := uint64(HeaderSize)
	dataOffset := dictOffset + uint64(len(dict))
	footerOffset := dataOffset + uint64(len(data))
	total := footerOffset + FooterSize

	blob := make([]byte, total)
	binary.LittleEndian.PutUint32(blob[offMagic:], Magic)
	binary.LittleEndian.PutUint16(blob[offVersion:], Version)
	blob[offCompression] = byte(code)
	blob[offValueType] = byte(vt)
	binary.LittleEndian.PutUint64(blob[offTotalBytes:], total)
	binary.LittleEndian.PutUint64(blob[offNumItems:], numItems)
	binary.LittleEndian.PutUint64(blob[offNumDictItems:], numDictItems)
	binary.LittleEndian.PutUint64(blob[offDictOffset:], dictOffset)
	binary.LittleEndian.PutUint64(blob[offDataOffset:], dataOffset)
	binary.LittleEndian.PutUint64(blob[offFooterOffset:], footerOffset)
	copy(blob[dictOffset:], dict)
	copy(blob[dataOffset:], data)
	binary.LittleEndian.PutUint64(blob[footerOffset:], uncompressedLen)
	sum := crc32.Checksum(blob[:footerOffset+8], castagnoli)
	binary.LittleEndian.PutUint32(blob[footerOffset+8:], sum)
	return blob
}

// RBC is a validated read-only view over an RBC blob. It holds the blob and
// pre-parsed offsets; accessors return subslices, never copies.
type RBC struct {
	blob         []byte
	code         codec.Code
	vt           ValueType
	numItems     uint64
	numDictItems uint64
	dictOffset   uint64
	dataOffset   uint64
	footerOffset uint64
}

// Parse validates a blob (magic, version, bounds, checksum) and returns a
// view. The blob is retained, not copied.
func Parse(blob []byte) (*RBC, error) {
	r, err := parseHeader(blob)
	if err != nil {
		return nil, err
	}
	want := binary.LittleEndian.Uint32(blob[r.footerOffset+8:])
	got := crc32.Checksum(blob[:r.footerOffset+8], castagnoli)
	if want != got {
		return nil, fmt.Errorf("%w: stored %08x computed %08x", ErrChecksum, want, got)
	}
	return r, nil
}

// ParseTrusted validates structure but skips the checksum. The seal uses it
// for blobs the process just built itself; every load from shared memory or
// disk must use Parse.
func ParseTrusted(blob []byte) (*RBC, error) {
	return parseHeader(blob)
}

func parseHeader(blob []byte) (*RBC, error) {
	if len(blob) < HeaderSize+FooterSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooShort, len(blob))
	}
	if m := binary.LittleEndian.Uint32(blob[offMagic:]); m != Magic {
		return nil, fmt.Errorf("%w: %08x", ErrMagic, m)
	}
	if v := binary.LittleEndian.Uint16(blob[offVersion:]); v != Version {
		return nil, fmt.Errorf("%w: blob version %d, code version %d", ErrVersion, v, Version)
	}
	r := &RBC{
		blob:         blob,
		code:         codec.Code(blob[offCompression]),
		vt:           ValueType(blob[offValueType]),
		numItems:     binary.LittleEndian.Uint64(blob[offNumItems:]),
		numDictItems: binary.LittleEndian.Uint64(blob[offNumDictItems:]),
		dictOffset:   binary.LittleEndian.Uint64(blob[offDictOffset:]),
		dataOffset:   binary.LittleEndian.Uint64(blob[offDataOffset:]),
		footerOffset: binary.LittleEndian.Uint64(blob[offFooterOffset:]),
	}
	if total := binary.LittleEndian.Uint64(blob[offTotalBytes:]); total != uint64(len(blob)) {
		return nil, fmt.Errorf("%w: header says %d, blob is %d", ErrSize, total, len(blob))
	}
	if r.dictOffset != HeaderSize ||
		r.dataOffset < r.dictOffset ||
		r.footerOffset < r.dataOffset ||
		r.footerOffset+FooterSize != uint64(len(blob)) {
		return nil, fmt.Errorf("%w: dict=%d data=%d footer=%d len=%d",
			ErrBounds, r.dictOffset, r.dataOffset, r.footerOffset, len(blob))
	}
	return r, nil
}

// Blob returns the underlying bytes (for copying to shm or disk).
func (r *RBC) Blob() []byte { return r.blob }

// Size returns the total blob size in bytes.
func (r *RBC) Size() int { return len(r.blob) }

// Code returns the compression pipeline applied to the data section.
func (r *RBC) Code() codec.Code { return r.code }

// Type returns the column's value type.
func (r *RBC) Type() ValueType { return r.vt }

// NumItems returns the number of values in the column.
func (r *RBC) NumItems() int { return int(r.numItems) }

// NumDictItems returns the number of dictionary entries.
func (r *RBC) NumDictItems() int { return int(r.numDictItems) }

// Dict returns the dictionary section (empty for non-dictionary columns).
func (r *RBC) Dict() []byte { return r.blob[r.dictOffset:r.dataOffset] }

// Data returns the (possibly byte-compressed) data section.
func (r *RBC) Data() []byte { return r.blob[r.dataOffset:r.footerOffset] }

// UncompressedLen returns the data section's size before byte compression.
func (r *RBC) UncompressedLen() int {
	return int(binary.LittleEndian.Uint64(r.blob[r.footerOffset:]))
}

// Checksum returns the stored CRC-32C.
func (r *RBC) Checksum() uint32 {
	return binary.LittleEndian.Uint32(r.blob[r.footerOffset+8:])
}
