// Package rowblock implements Scuba's row blocks (Figure 2). A row block
// holds up to 65,536 consecutively-arrived rows (capped at 1 GB of
// pre-compression data), organized as a header, a schema, and one row block
// column (RBC) per column. Different row blocks of the same table may have
// different schemas; rows that lack a column get that type's zero value.
//
// A sealed row block is immutable. Its header records the size in bytes, the
// row count, the minimum and maximum values of the required "time" column,
// and the block's creation timestamp; query processing uses min/max time to
// skip blocks without touching their columns (§2.1).
package rowblock

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"sync"

	"scuba/internal/column"
	"scuba/internal/fault"
	"scuba/internal/layout"
)

// Capacity limits from the paper (§2.1): a row block contains 65,536 rows
// and is capped at 1 GB pre-compression even when not full.
const (
	MaxRows  = 65536
	MaxBytes = 1 << 30
)

// TimeColumn is the name of the required unix-timestamp column present in
// every row. Timestamps are event times, not unique (§2.1).
const TimeColumn = "time"

// Field is one column in a row block's schema.
type Field struct {
	Name string
	Type layout.ValueType
}

// Schema describes the columns of one row block: names and types (Figure 2).
type Schema []Field

// Index returns the position of the named field, or -1.
func (s Schema) Index(name string) int {
	for i, f := range s {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Value is one cell of a row. Exactly the field matching Type is meaningful.
type Value struct {
	Type  layout.ValueType
	Int   int64
	Float float64
	Str   string
	Set   []string
}

// Int64Value, Float64Value, StringValue and SetValue build typed cells.
func Int64Value(v int64) Value     { return Value{Type: layout.TypeInt64, Int: v} }
func Float64Value(v float64) Value { return Value{Type: layout.TypeFloat64, Float: v} }
func StringValue(v string) Value   { return Value{Type: layout.TypeString, Str: v} }
func SetValue(v ...string) Value   { return Value{Type: layout.TypeStringSet, Set: v} }

// Row is one ingested event: a required timestamp plus named columns.
type Row struct {
	Time int64
	Cols map[string]Value
}

// Header describes general properties of a row block (Figure 2).
type Header struct {
	Size     int64 // total bytes of all RBC blobs
	RowCount int
	MinTime  int64
	MaxTime  int64
	Created  int64 // when the row block was first created
}

// Source is the foreign memory a zero-copy block's RBC blobs alias — after a
// shm restart, a refcounted mmap'd segment view; after a crash start, a store
// image's own refcounted mapping (disk.Mapping). Retain pins the memory for a
// reader and reports false when the source is already gone (the last
// reference dropped); Release undoes one Retain. Evict ends block b's
// residency — no table holds it any more — and keeps the reference that
// residency held, which the caller then Releases like a reader's: a view's
// file shrinks as its blocks leave and goes with the last residency (a store
// image's file is the store's to remove), the mapping with the last
// reference. A block with a nil source owns its memory outright.
type Source interface {
	Retain() bool
	Release()
	Evict(b *RowBlock)
}

// ReleaseSources ends the residency of every foreign-memory block in blocks
// and drops its reference (no-op for heap-owned blocks). Removers call it
// exactly once per block they take out of circulation — see the refcount
// discipline on shm.MappedView.
func ReleaseSources(blocks []*RowBlock) {
	for _, rb := range blocks {
		if rb != nil && rb.src != nil {
			rb.src.Evict(rb)
			rb.src.Release()
		}
	}
}

// RowBlock is a sealed, immutable block.
type RowBlock struct {
	hdr    Header
	schema Schema
	cols   []*layout.RBC // parallel to schema; nil after ReleaseColumn
	// zones holds per-column zone maps parallel to schema: Seal computes
	// them and an image carries them.
	zones []ZoneMap
	// src is non-nil while the RBC blobs alias foreign memory (a mapped shm
	// segment or store image). Readers must hold a Retain on it across any
	// column access.
	src Source
	// check is set on a block whose columns nothing has parsed or checked
	// yet (OpenImage): its first reader parses blobs into cols and checks
	// every checksum, once (Verify). image is the mapped image such a block
	// was decoded from.
	check *firstRead
	image []byte
	blobs [][]byte
}

// firstRead is the outcome of a block's one column pass.
type firstRead struct {
	once sync.Once
	err  error
}

// DamagedError is a block whose column bytes failed their checksum when
// they were first read or copied: nothing may answer from it, and its owner
// replaces it (from the store's image of the same rows) or drops it.
type DamagedError struct {
	Block *RowBlock
	Err   error
}

func (e *DamagedError) Error() string { return "rowblock: damaged block: " + e.Err.Error() }
func (e *DamagedError) Unwrap() error { return e.Err }

// Verify parses and checks every column of a block OpenImage decoded — the
// structure and the checksum of each blob — the first time anyone asks, a
// scan's first column read, and returns the same answer after that; a block
// built or copied in this process has nothing to check. Concurrent first
// readers wait for one pass. The fast path is one atomic load.
func (b *RowBlock) Verify() error {
	if b.check == nil {
		return nil
	}
	return b.verifyOnce()
}

// verifyOnce is Verify's one pass, kept out of it so that the check every
// read makes inlines.
func (b *RowBlock) verifyOnce() error {
	b.check.once.Do(func() {
		if err := b.parseColumns(b.blobs); err != nil {
			b.check.err = &DamagedError{Block: b, Err: err}
		}
	})
	return b.check.err
}

// SetSource marks the block's columns as aliasing foreign memory owned by s.
func (b *RowBlock) SetSource(s Source) { b.src = s }

// Source returns the foreign memory owner, or nil for heap-owned blocks.
func (b *RowBlock) Source() Source { return b.src }

// CloneToHeap deep-copies the block's RBC blobs into fresh heap memory and
// returns a source-free block with the same header, schema, and zone maps.
// It is how a shm-resident block moves heap-side, before ALIVE or behind it.
// The copy is what the leaf keeps, so its columns are parsed and checked as
// the first read of an OpenImage block's are, while the copy is hot; a
// failure is a *DamagedError naming b. An armed shm.copy_in corruption
// damages the copy, past its header, before the check — the mapping it came
// from is read-only.
func (b *RowBlock) CloneToHeap() (*RowBlock, error) {
	blobs := b.blobs
	if blobs == nil {
		blobs = make([][]byte, len(b.cols))
		for i, c := range b.cols {
			if c == nil {
				return nil, fmt.Errorf("rowblock: cloning released column %d", i)
			}
			blobs[i] = c.Blob()
		}
	}
	clone := &RowBlock{hdr: b.hdr, schema: b.schema, cols: make([]*layout.RBC, len(blobs)), zones: b.zones}
	copies := make([][]byte, len(blobs))
	for i, blob := range blobs {
		copies[i] = append([]byte(nil), blob...)
		if len(blob) > layout.HeaderSize { // a shorter one fails its parse
			fault.CorruptBytes(fault.SiteShmCopyIn, copies[i][layout.HeaderSize:])
		}
	}
	if err := clone.parseColumns(copies); err != nil {
		return nil, &DamagedError{Block: b, Err: fmt.Errorf("clone: %w", err)}
	}
	return clone, nil
}

// Header returns the block header.
func (b *RowBlock) Header() Header { return b.hdr }

// Schema returns the block schema. Callers must not modify it.
func (b *RowBlock) Schema() Schema { return b.schema }

// NumColumns returns the number of columns.
func (b *RowBlock) NumColumns() int { return len(b.cols) }

// Rows returns the number of rows.
func (b *RowBlock) Rows() int { return b.hdr.RowCount }

// Column returns the i'th RBC, or nil if it has been released.
func (b *RowBlock) Column(i int) *layout.RBC { return b.cols[i] }

// HasColumn reports whether the named column is in the schema.
func (b *RowBlock) HasColumn(name string) bool { return b.schema.Index(name) >= 0 }

// ColumnByName returns the RBC for the named column, or nil.
func (b *RowBlock) ColumnByName(name string) *layout.RBC {
	if i := b.schema.Index(name); i >= 0 {
		return b.cols[i]
	}
	return nil
}

// DecodeColumn decodes the named column. Data stays compressed in memory;
// queries decode on demand. It is a first read (Verify).
func (b *RowBlock) DecodeColumn(name string) (column.Column, error) {
	if err := b.Verify(); err != nil {
		return nil, err
	}
	rbc := b.ColumnByName(name)
	if rbc == nil {
		return nil, fmt.Errorf("rowblock: no column %q", name)
	}
	return column.Decode(rbc)
}

// Times decodes the required time column into dst, which is reused when it
// is large enough and may be nil. It is a first read (Verify).
func (b *RowBlock) Times(dst []int64) ([]int64, error) {
	rbc, err := b.timeColumn()
	if err != nil {
		return nil, err
	}
	return column.DecodeInt64(dst, rbc)
}

// Range returns, when the block's times ascend (ok), the rows [lo, hi) whose
// times lie in [from, to], as UnsealedView.Range does: found as the time
// column decodes, and without keeping it (column.SearchInt64). It is a first
// read (Verify).
func (b *RowBlock) Range(from, to int64) (lo, hi int, ok bool, err error) {
	rbc, err := b.timeColumn()
	if err != nil {
		return 0, 0, false, err
	}
	return column.SearchInt64(rbc, from, to)
}

func (b *RowBlock) timeColumn() (*layout.RBC, error) {
	if err := b.Verify(); err != nil {
		return nil, err
	}
	rbc := b.ColumnByName(TimeColumn)
	if rbc == nil {
		return nil, errors.New("rowblock: missing time column")
	}
	return rbc, nil
}

// Overlaps reports whether the block may contain rows in [from, to].
// Nearly all queries carry time predicates; this is the index (§2.1).
func (b *RowBlock) Overlaps(from, to int64) bool {
	return b.hdr.MinTime <= to && b.hdr.MaxTime >= from
}

// Within reports whether every row's time lies in [from, to]: the header
// then answers the time predicate for the whole block and no reader needs
// the time column.
func (b *RowBlock) Within(from, to int64) bool {
	return b.hdr.MinTime >= from && b.hdr.MaxTime <= to
}

// ReleaseColumn drops the i'th RBC so its heap memory can be reclaimed.
// Shutdown copies one RBC at a time into shared memory and releases each as
// it goes, keeping the process footprint flat (§4.4, Figure 6).
func (b *RowBlock) ReleaseColumn(i int) { b.cols[i] = nil }

// Builder accumulates rows and seals them into a RowBlock.
type Builder struct {
	created  int64
	times    []int64
	minTime  int64 // over times, kept by AppendBatch for Seal and Snapshot
	maxTime  int64
	sorted   bool     // no time is below one appended before it (ties allowed)
	names    []string // column order of first appearance
	builders map[string]*builderColumn
	rawBytes int64 // pre-compression size estimate, for the 1 GB cap
	byteCap  int64 // defaults to MaxBytes; tests lower it
	reserve  int   // cells each vector is made with (Reserve); 0 doubles from the first batch
}

// builderColumn is a builder's column: a number column's cells, or a string
// or set column's interner of its rows (Strs and Sets stay nil).
type builderColumn struct {
	BatchColumn
	dict column.Interner
}

// NewBuilder returns a builder; created is the block creation timestamp.
func NewBuilder(created int64) *Builder {
	return &Builder{created: created, minTime: math.MaxInt64, maxTime: math.MinInt64, sorted: true,
		builders: make(map[string]*builderColumn), byteCap: MaxBytes}
}

// Reserve sizes a new builder for rows rows, capped at MaxRows: each vector
// is made once at that size — the time vector now, a column's when the
// column first appears — instead of doubling up to it. Crash replay knows the
// tail it is about to append; live ingest does not reserve.
func (b *Builder) Reserve(rows int) {
	b.reserve = min(rows, MaxRows)
	b.times = grow(b.times, b.reserve-len(b.times))
}

// Rows returns the number of rows added so far.
func (b *Builder) Rows() int { return len(b.times) }

// RawBytes returns the pre-compression size estimate.
func (b *Builder) RawBytes() int64 { return b.rawBytes }

// Full reports whether the block has hit the row or byte cap. The byte cap
// means a block can seal with far fewer than 65K rows: "the row block is
// capped at 1 GB, pre-compression, even if there are fewer than 65K rows"
// (§2.1).
func (b *Builder) Full() bool {
	return len(b.times) >= MaxRows || b.rawBytes >= b.byteCap
}

// Errors returned by AddRow and AppendBatch.
var (
	ErrFull         = errors.New("rowblock: block is full")
	ErrTypeConflict = errors.New("rowblock: column type conflict")
	ErrReservedName = errors.New("rowblock: 'time' is a reserved column name")
)

// AddRow appends one row as a one-row batch, so there is a single apply and
// accounting path. It is a convenience for tests and tools: each call pays
// O(columns) allocations, and bulk callers use FromRows with AppendBatch.
func (b *Builder) AddRow(r Row) error {
	bt, err := FromRows([]Row{r})
	if err != nil {
		return err
	}
	_, err = b.AppendBatch(bt)
	return err
}

// extend appends src's cells of the column's type, then pads the column with
// absent cells — zero numbers, "" or empty sets — to rows rows, in vectors
// with room for at least room rows.
func (cb *builderColumn) extend(src BatchColumn, rows, room int) {
	switch r := growth(cb.dict.Cap(), max(rows, room)); cb.Type {
	case layout.TypeString:
		cb.dict.AppendStrings(src.Strs, rows, r)
	case layout.TypeStringSet:
		cb.dict.AppendSets(src.Sets, rows, r)
	default:
		cb.Ints = append(grow(cb.Ints, len(src.Ints)), src.Ints...)
		cb.Floats = append(grow(cb.Floats, len(src.Floats)), src.Floats...)
		cb.backfill(rows, room)
	}
}

// backfill pads the column with zero values up to rows cells, in a vector
// with room for at least room.
func (cb *BatchColumn) backfill(rows, room int) {
	switch cb.Type {
	case layout.TypeInt64, layout.TypeTime:
		cb.Ints = pad(cb.Ints, rows, room)
	case layout.TypeFloat64:
		cb.Floats = pad(cb.Floats, rows, room)
	case layout.TypeString:
		cb.Strs = pad(cb.Strs, rows, room)
	case layout.TypeStringSet:
		cb.Sets = pad(cb.Sets, rows, room)
	}
}

// pad extends s with zero values to n cells, growing it to room or more.
func pad[T any](s []T, n, room int) []T {
	m := len(s)
	s = grow(s, max(n, room)-m)[:n]
	clear(s[m:])
	return s
}

// grow returns s with room for n more cells (growth).
func grow[T any](s []T, n int) []T {
	if need := len(s) + n; need > cap(s) {
		s = append(make([]T, 0, growth(cap(s), need)), s...)
	}
	return s
}

// growth is the capacity a vector of capacity c takes to hold need cells:
// doubled, capped at MaxRows — half the moves of append's ~1.25× steps.
func growth(c, need int) int {
	if need <= c {
		return c
	}
	return min(max(2*c, need), max(MaxRows, need))
}

// sealedType is the column's type in a block's schema: only the time column
// is typed time there.
func (cb *BatchColumn) sealedType() layout.ValueType {
	if cb.Type == layout.TypeTime {
		return layout.TypeInt64
	}
	return cb.Type
}

// zeroCellBytes is the pre-compression size of a zero value.
func zeroCellBytes(vt layout.ValueType) int64 {
	if vt == layout.TypeString || vt == layout.TypeStringSet {
		return 1
	}
	return 8
}

// rawBytes is the pre-compression size of the column's first n cells: 8 per
// number, length+1 per string, 1 plus length+1 per element for a set.
func (c *BatchColumn) rawBytes(n int) int64 {
	switch c.Type {
	case layout.TypeString:
		sz := int64(n)
		for _, s := range c.Strs[:n] {
			sz += int64(len(s))
		}
		return sz
	case layout.TypeStringSet:
		sz := int64(n)
		for _, set := range c.Sets[:n] {
			for _, s := range set {
				sz += int64(len(s)) + 1
			}
		}
		return sz
	default:
		return 8 * int64(n)
	}
}

// AppendBatch appends the leading rows of bt — all of them unless the row or
// byte cap cuts the batch short — as whole column vectors and returns how
// many it took; the caller seals a Full builder and feeds the rest to a
// fresh one. A builder column the batch lacks gets zero values, a column the
// batch introduces is backfilled with zero values for the rows already held,
// and rawBytes counts every cell the builder holds, backfilled ones included.
// A column whose type differs from the builder's fails with ErrTypeConflict
// before anything is appended.
func (b *Builder) AppendBatch(bt *Batch) (int, error) {
	if b.Full() {
		return 0, ErrFull
	}
	prev := len(b.times)
	// perRow starts as the size of a row with every known column absent; each
	// column the batch does carry is then counted by its actual cells. fixed
	// is the backfill of the columns the batch introduces.
	perRow, fixed := int64(8), int64(0)
	for _, cb := range b.builders {
		perRow += zeroCellBytes(cb.Type)
	}
	for i := range bt.Cols {
		c := &bt.Cols[i]
		if c.Name == TimeColumn {
			return 0, ErrReservedName
		}
		cb, ok := b.builders[c.Name]
		if !ok {
			fixed += int64(prev) * zeroCellBytes(c.Type)
			continue
		}
		if cb.Type != c.Type {
			return 0, fmt.Errorf("%w: column %q is %v, batch has %v", ErrTypeConflict, c.Name, cb.Type, c.Type)
		}
		perRow -= zeroCellBytes(cb.Type)
	}
	size := func(n int) int64 {
		sz := fixed + perRow*int64(n)
		for i := range bt.Cols {
			sz += bt.Cols[i].rawBytes(n)
		}
		return sz
	}
	n := min(bt.Rows(), MaxRows-len(b.times))
	sz := size(n)
	if room := b.byteCap - b.rawBytes; sz > room {
		// Take rows up to and including the one that reaches the cap.
		n = 1 + sort.Search(n, func(k int) bool { return size(k+1) >= room })
		sz = size(n)
	}

	b.times = append(grow(b.times, n), bt.Times[:n]...)
	for _, t := range bt.Times[:n] {
		b.sorted = b.sorted && t >= b.maxTime // one straggler clears it for good
		b.minTime = min(b.minTime, t)
		b.maxTime = max(b.maxTime, t)
	}
	b.rawBytes += sz
	for i := range bt.Cols {
		c := &bt.Cols[i]
		cb, ok := b.builders[c.Name]
		if !ok {
			cb = &builderColumn{BatchColumn: BatchColumn{Name: c.Name, Type: c.Type}}
			cb.extend(BatchColumn{}, prev, b.reserve)
			b.builders[c.Name] = cb
			b.names = append(b.names, c.Name)
		}
		cb.extend(c.slice(0, n), len(b.times), 0)
	}
	for _, cb := range b.builders {
		cb.extend(BatchColumn{}, len(b.times), b.reserve)
	}
	return n, nil
}

// Seal compresses all columns and returns the immutable block. The builder
// must not be reused afterwards.
func (b *Builder) Seal() (*RowBlock, error) {
	if len(b.times) == 0 {
		return nil, errors.New("rowblock: sealing empty block")
	}
	schema := Schema{{Name: TimeColumn, Type: layout.TypeTime}}
	blobs := [][]byte{column.EncodeInt64(layout.TypeTime, b.times)}
	// Zone maps are stamped from the raw values (strings from their
	// dictionary), so the query path can disprove predicates undecoded.
	zones := []ZoneMap{{Kind: ZoneInt, MinI: b.minTime, MaxI: b.maxTime}}
	for _, name := range b.names {
		cb := b.builders[name]
		var blob []byte
		var dict []string
		switch cb.Type {
		case layout.TypeInt64, layout.TypeTime:
			blob = column.EncodeInt64(layout.TypeInt64, cb.Ints)
		case layout.TypeFloat64:
			blob = column.EncodeFloat64(cb.Floats)
		case layout.TypeString:
			blob, dict = cb.dict.EncodeStrings()
		case layout.TypeStringSet:
			blob, dict = cb.dict.EncodeSets()
		}
		schema = append(schema, Field{Name: name, Type: cb.sealedType()})
		blobs = append(blobs, blob)
		zones = append(zones, cb.sealZoneMap(dict))
	}
	var size int64
	cols := make([]*layout.RBC, len(blobs))
	for i, blob := range blobs {
		rbc, err := layout.ParseTrusted(blob)
		if err != nil {
			return nil, fmt.Errorf("rowblock: sealing column %q: %w", schema[i].Name, err)
		}
		cols[i] = rbc
		size += int64(len(blob))
	}
	return &RowBlock{
		hdr: Header{
			Size:     size,
			RowCount: len(b.times),
			MinTime:  b.minTime,
			MaxTime:  b.maxTime,
			Created:  b.created,
		},
		schema: schema,
		cols:   cols,
		zones:  zones,
	}, nil
}

// checkColumns is an image decode's check of its parsed RBCs: the first
// schema entry must be the time column, and hdr.Size/RowCount must match the
// columns.
func checkColumns(hdr Header, schema Schema, cols []*layout.RBC) error {
	if len(schema) != len(cols) {
		return fmt.Errorf("rowblock: %d schema fields, %d columns", len(schema), len(cols))
	}
	if len(schema) == 0 || schema[0].Name != TimeColumn {
		return errors.New("rowblock: first column must be 'time'")
	}
	var size int64
	for i, c := range cols {
		if c.NumItems() != hdr.RowCount {
			return fmt.Errorf("rowblock: column %q has %d items, header says %d rows",
				schema[i].Name, c.NumItems(), hdr.RowCount)
		}
		size += int64(c.Size())
	}
	if size != hdr.Size {
		return fmt.Errorf("%w: header size %d, columns total %d", ErrImageCorrupt, hdr.Size, size)
	}
	return nil
}

// ---- Block image: the position-independent serialized form (Figure 4) ----
//
// Because the number and sizes of the RBCs are known when the image is
// allocated, the image lays out header, schema, zone maps, a column offset
// table, and then the RBC blobs contiguously — one less level of
// indirection than the heap layout.
//
//	u32  magic "RBK2"
//	u64  image size in bytes
//	u64  row count
//	i64  min time, max time, created
//	u32  number of columns
//	per column: u16 name length, name bytes, u8 type
//	per column: zone map (u8 kind + kind-dependent payload)
//	per column: u64 offset of the RBC blob from the image base
//	RBC blobs, contiguous
//
// "RBK1", the version-1 image without the zone-map section, is corrupt to
// this reader: no supported release writes it (DESIGN.md §13).

// imageMagic identifies a serialized row block image.
const imageMagic uint32 = 0x324b4252 // "RBK2"

// ErrImageCorrupt is returned for structurally invalid block images.
var ErrImageCorrupt = errors.New("rowblock: corrupt block image")

// ImagePrefix serializes everything before the RBC blobs: an image is its
// prefix followed by every column's blob. The shutdown copy writes the prefix
// and then one column at a time, releasing each heap column right behind its
// copy (Figure 6), so it must be taken before the first release.
func (b *RowBlock) ImagePrefix() []byte {
	var p []byte
	p = binary.LittleEndian.AppendUint32(p, imageMagic)
	p = binary.LittleEndian.AppendUint64(p, 0) // image size, patched below
	p = binary.LittleEndian.AppendUint64(p, uint64(b.hdr.RowCount))
	p = binary.LittleEndian.AppendUint64(p, uint64(b.hdr.MinTime))
	p = binary.LittleEndian.AppendUint64(p, uint64(b.hdr.MaxTime))
	p = binary.LittleEndian.AppendUint64(p, uint64(b.hdr.Created))
	p = binary.LittleEndian.AppendUint32(p, uint32(len(b.schema)))
	for _, f := range b.schema {
		p = binary.LittleEndian.AppendUint16(p, uint16(len(f.Name)))
		p = append(p, f.Name...)
		p = append(p, byte(f.Type))
	}
	for i := range b.schema {
		p = appendZoneMap(p, b.zoneAt(i))
	}
	offsetTable := len(p)
	off := uint64(offsetTable + 8*len(b.cols))
	for _, c := range b.cols {
		p = binary.LittleEndian.AppendUint64(p, off)
		off += uint64(c.Size())
	}
	binary.LittleEndian.PutUint64(p[4:], off) // total image size
	return p
}

// zoneAt returns the i'th column's zone map (ZoneNone when the block
// carries no summaries).
func (b *RowBlock) zoneAt(i int) ZoneMap {
	if i >= len(b.zones) {
		return ZoneMap{Kind: ZoneNone}
	}
	return b.zones[i]
}

// AppendImage serializes the whole block (prefix plus all columns), or
// appends its MappedImage.
func (b *RowBlock) AppendImage(dst []byte) []byte {
	if b.image != nil {
		return append(dst, b.image...)
	}
	dst = append(dst, b.ImagePrefix()...)
	for _, c := range b.cols {
		dst = append(dst, c.Blob()...)
	}
	return dst
}

// DecodeImage parses a block image zero-copy — the RBCs alias img — and
// verifies every column's checksum: a store image (disk.Store.LoadImage).
func DecodeImage(img []byte) (*RowBlock, int, error) {
	rb, blobs, size, err := decodePrefix(img)
	if err == nil {
		err = rb.parseColumns(blobs)
	}
	if err != nil {
		return nil, 0, err
	}
	return rb, size, nil
}

// OpenImage decodes an image zero-copy and checks only its prefix now —
// header, schema, zone maps and column offsets, the bytes no column checksum
// covers — against prefixCRC, the PrefixCRC its writer recorded beside it.
// The columns are the block's first reader's to parse and check (Verify), so
// opening a mapped shm segment reads its metadata and none of its data. The
// block keeps img as its image (MappedImage).
func OpenImage(img []byte, prefixCRC uint32) (*RowBlock, int, error) {
	rb, blobs, size, err := decodePrefix(img)
	if err != nil {
		return nil, 0, err
	}
	if sum := PrefixCRC(img[:int64(size)-rb.hdr.Size]); sum != prefixCRC {
		return nil, 0, fmt.Errorf("%w: prefix checksum %08x, recorded %08x", ErrImageCorrupt, sum, prefixCRC)
	}
	rb.check, rb.image, rb.blobs = new(firstRead), img[:size], blobs
	return rb, size, nil
}

// PrefixCRC is the CRC-32C of an image prefix (ImagePrefix) that OpenImage
// checks.
func PrefixCRC(prefix []byte) uint32 { return crc32.Checksum(prefix, castagnoli) }

// MappedImage is the image an OpenImage block was decoded from, the bytes a
// copy of it writes as they are — unchecked ones included: their checksums
// travel with them — and nil for a block built or copied in this process or
// decoded whole (DecodeImage). So it is non-nil exactly for a block served
// from a shm segment view.
func (b *RowBlock) MappedImage() []byte { return b.image }

// decodePrefix parses an image's prefix into a block without columns, and
// returns the column blobs, which tile the image from the prefix's end to
// its own; the header's Size is their total.
func decodePrefix(img []byte) (*RowBlock, [][]byte, int, error) {
	if len(img) < 48 {
		return nil, nil, 0, fmt.Errorf("%w: %d bytes", ErrImageCorrupt, len(img))
	}
	if magic := binary.LittleEndian.Uint32(img); magic != imageMagic {
		return nil, nil, 0, fmt.Errorf("%w: magic %08x", ErrImageCorrupt, magic)
	}
	size := binary.LittleEndian.Uint64(img[4:])
	if size > uint64(len(img)) || size < 48 {
		return nil, nil, 0, fmt.Errorf("%w: image size %d, buffer %d", ErrImageCorrupt, size, len(img))
	}
	img = img[:size]
	hdr := Header{
		RowCount: int(binary.LittleEndian.Uint64(img[12:])),
		MinTime:  int64(binary.LittleEndian.Uint64(img[20:])),
		MaxTime:  int64(binary.LittleEndian.Uint64(img[28:])),
		Created:  int64(binary.LittleEndian.Uint64(img[36:])),
	}
	ncols := int(binary.LittleEndian.Uint32(img[44:]))
	pos := 48
	// A schema entry takes at least 3 bytes and each column needs an
	// 8-byte offset; reject counts the image cannot possibly hold before
	// allocating anything (untrusted input must not size allocations).
	if ncols < 1 || pos+11*ncols > len(img) {
		return nil, nil, 0, fmt.Errorf("%w: %d columns in %d bytes", ErrImageCorrupt, ncols, len(img))
	}
	schema := make(Schema, 0, ncols)
	for i := 0; i < ncols; i++ {
		if pos+2 > len(img) {
			return nil, nil, 0, fmt.Errorf("%w: truncated schema", ErrImageCorrupt)
		}
		nameLen := int(binary.LittleEndian.Uint16(img[pos:]))
		pos += 2
		if pos+nameLen+1 > len(img) {
			return nil, nil, 0, fmt.Errorf("%w: truncated schema entry", ErrImageCorrupt)
		}
		name := string(img[pos : pos+nameLen])
		pos += nameLen
		vt := layout.ValueType(img[pos])
		pos++
		schema = append(schema, Field{Name: name, Type: vt})
	}
	zones := make([]ZoneMap, 0, ncols)
	for i := 0; i < ncols; i++ {
		z, used, err := parseZoneMap(img[pos:])
		if err != nil {
			return nil, nil, 0, err
		}
		zones = append(zones, z)
		pos += used
	}
	if pos+8*ncols > len(img) {
		return nil, nil, 0, fmt.Errorf("%w: truncated offset table", ErrImageCorrupt)
	}
	offsets := make([]uint64, ncols)
	for i := range offsets {
		offsets[i] = binary.LittleEndian.Uint64(img[pos:])
		pos += 8
	}
	blobs := make([][]byte, ncols)
	for i, off := range offsets {
		end := size
		if i+1 < ncols {
			end = offsets[i+1]
		}
		if off > end || end > size || off < uint64(pos) {
			return nil, nil, 0, fmt.Errorf("%w: column %d offsets [%d,%d)", ErrImageCorrupt, i, off, end)
		}
		blobs[i] = img[off:end]
	}
	hdr.Size = int64(size - offsets[0])
	return &RowBlock{hdr: hdr, schema: schema, zones: zones, cols: make([]*layout.RBC, ncols)}, blobs, int(size), nil
}

// parseColumns builds the block's columns from their blobs and checks them
// against its header and schema (checkColumns).
func (b *RowBlock) parseColumns(blobs [][]byte) error {
	cols := make([]*layout.RBC, len(blobs))
	for i, blob := range blobs {
		rbc, err := layout.Parse(blob)
		if err != nil {
			return fmt.Errorf("rowblock: column %d (%s): %w", i, b.schema[i].Name, err)
		}
		cols[i] = rbc
	}
	if err := checkColumns(b.hdr, b.schema, cols); err != nil {
		return err
	}
	copy(b.cols, cols)
	return nil
}
