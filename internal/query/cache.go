package query

import (
	"container/list"
	"sync"

	"scuba/internal/column"
	"scuba/internal/metrics"
	"scuba/internal/rowblock"
)

// DecodeCache is a per-table, byte-bounded LRU of decoded columns keyed by
// (sealed block, column name). Dashboards re-run the same handful of queries
// over the same recent blocks; without the cache every run pays LZ4 +
// dictionary decode for every referenced column of every block. Entries are
// immutable once inserted (decoded columns are read-only shared data), so a
// hit is a pointer copy.
//
// Only sealed *rowblock.RowBlock values are cached: unsealed views are
// rebuilt per query and their pointer would never hit again. The owning leaf
// invalidates a block's entries when the block leaves the table (expiration,
// shutdown copy-out) via InvalidateBlocks.
type DecodeCache struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	ll      *list.List // front = most recently used
	entries map[decodeKey]*list.Element

	// Counters are resolved once at construction; nil when no registry.
	hits      *metrics.Counter
	misses    *metrics.Counter
	evictions *metrics.Counter
	bytesG    *metrics.Gauge
}

type decodeKey struct {
	blk  Block
	name string
}

type decodeEntry struct {
	key  decodeKey
	col  column.Column
	size int64
}

// NewDecodeCache returns a cache holding at most maxBytes of decoded
// columns. A nil or zero budget disables caching (every method is a cheap
// no-op on a nil cache). Metrics, when reg is non-nil, appear as
// query.decode_cache.{hits,misses,evictions,bytes}.
func NewDecodeCache(maxBytes int64, reg *metrics.Registry) *DecodeCache {
	if maxBytes <= 0 {
		return nil
	}
	c := &DecodeCache{
		max:     maxBytes,
		ll:      list.New(),
		entries: make(map[decodeKey]*list.Element),
	}
	if reg != nil {
		c.hits = reg.Counter("query.decode_cache.hits")
		c.misses = reg.Counter("query.decode_cache.misses")
		c.evictions = reg.Counter("query.decode_cache.evictions")
		c.bytesG = reg.Gauge("query.decode_cache.bytes")
	}
	return c
}

func count(c *metrics.Counter) {
	if c != nil {
		c.Add(1)
	}
}

// cacheable reports whether rb's decoded columns may be cached.
func cacheable(rb Block) bool {
	_, ok := rb.(*rowblock.RowBlock)
	return ok
}

// Get returns the cached decoded column, if present.
func (c *DecodeCache) Get(rb Block, name string) (column.Column, bool) {
	if c == nil || !cacheable(rb) {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[decodeKey{rb, name}]
	if !ok {
		count(c.misses)
		return nil, false
	}
	c.ll.MoveToFront(el)
	count(c.hits)
	return el.Value.(*decodeEntry).col, true
}

// Put inserts a decoded column, evicting least-recently-used entries to stay
// under budget. Columns larger than the whole budget are not cached.
func (c *DecodeCache) Put(rb Block, name string, col column.Column) {
	if c == nil || !cacheable(rb) || col == nil {
		return
	}
	size := columnBytes(name, col)
	if size > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := decodeKey{rb, name}
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*decodeEntry)
		c.bytes += size - e.size
		e.col, e.size = col, size
	} else {
		c.entries[key] = c.ll.PushFront(&decodeEntry{key: key, col: col, size: size})
		c.bytes += size
	}
	for c.bytes > c.max {
		c.evictOldestLocked()
	}
	c.setBytesGaugeLocked()
}

func (c *DecodeCache) evictOldestLocked() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	e := el.Value.(*decodeEntry)
	c.ll.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.size
	count(c.evictions)
}

// InvalidateBlocks drops every entry belonging to the given blocks. Called
// by the owning leaf when blocks leave their table (expiration, shutdown
// copy-out), before the table releases the blocks' columns.
func (c *DecodeCache) InvalidateBlocks(blocks []*rowblock.RowBlock) {
	if c == nil || len(blocks) == 0 {
		return
	}
	gone := make(map[Block]bool, len(blocks))
	for _, rb := range blocks {
		gone[rb] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*decodeEntry)
		if gone[e.key.blk] {
			c.ll.Remove(el)
			delete(c.entries, e.key)
			c.bytes -= e.size
		}
		el = next
	}
	c.setBytesGaugeLocked()
}

// Stats returns current occupancy for tests and debugging.
func (c *DecodeCache) Stats() (entries int, bytes int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.bytes
}

func (c *DecodeCache) setBytesGaugeLocked() {
	if c.bytesG != nil {
		c.bytesG.Set(c.bytes)
	}
}

// columnBytes estimates the in-memory footprint of a decoded column for the
// byte budget. Estimates err slightly low (slice headers, map overhead are
// ignored) — the budget is a pressure valve, not an accountant.
func columnBytes(name string, col column.Column) int64 {
	n := int64(len(name)) + 64 // key + entry bookkeeping
	switch c := col.(type) {
	case *column.Int64Column:
		n += int64(len(c.Values)) * 8
	case *column.Float64Column:
		n += int64(len(c.Values)) * 8
	case *column.StringColumn:
		for _, s := range c.Dict {
			n += int64(len(s)) + 16
		}
		n += int64(len(c.IDs)) * 4
	case *column.SetMasks: // a string set as the scanner keeps it
		for _, s := range c.Dict {
			n += int64(len(s)) + 16
		}
		n += int64(c.MaskBytes())
	}
	return n
}
