// Package table implements Scuba tables: an ordered vector of row blocks
// plus a header (Figure 2), with ingestion, age/size-based expiration, and
// the per-table shutdown/restore state machine (Figure 5c, 5d).
//
// Each leaf server holds a fraction of most tables (§2.1). A table accepts
// new rows into an in-progress row block builder, seals the builder when it
// reaches 65,536 rows (or the byte cap), and serves queries over its sealed
// blocks. Deletion of expired data runs during normal operation and is
// stopped as soon as shutdown starts.
package table

import (
	"errors"
	"fmt"
	"sync"

	"scuba/internal/rowblock"
)

// Options configure a table.
type Options struct {
	// MaxAgeSeconds expires row blocks whose newest row is older than this.
	// Zero means no age limit.
	MaxAgeSeconds int64
	// MaxBytes trims oldest blocks when total compressed bytes exceed it.
	// Zero means no size limit.
	MaxBytes int64
}

// Errors returned by table operations.
var (
	ErrNotAccepting  = errors.New("table: not accepting requests in current state")
	ErrDeletesKilled = errors.New("table: delete killed by shutdown")
)

// Table holds one table's data on one leaf.
type Table struct {
	name string
	opts Options

	mu          sync.Mutex
	cond        *sync.Cond
	state       State
	inflightQry int
	inflightDel int
	killDeletes bool

	blocks  []*rowblock.RowBlock
	active  *rowblock.Builder
	reserve int // rows the next builder is sized for (Reserve), then 0
	// starts[i] is the global row index of blocks[i]'s first row, and
	// sealedEnd the index one past the last sealed row. Global indexes are
	// cumulative over the table's whole life — expiration drops entries but
	// never renumbers — so they key WAL records and block images stably
	// across restarts.
	starts    []int64
	sealedEnd int64
	// persisted is the global row index below which sealed rows are in the
	// store's block images (or expired by retention); only blocks sealed
	// since the last synchronization point are written again (§4.1). Tracked
	// as an index, not a block count, so concurrent expiry of leading blocks
	// can never shift coverage onto a block that was never imaged.
	persisted int64

	rowsTotal  int64
	bytesTotal int64

	// evictHook, when set, observes blocks leaving the block vector
	// (expiration, shutdown copy-out) so the owner can drop derived state —
	// the leaf's decoded-column cache. Called without the table lock held;
	// the hook must tolerate concurrent calls.
	evictHook func([]*rowblock.RowBlock)
}

// New creates an empty table in the ALIVE state (a table created by its
// first incoming batch transitions INIT -> ALIVE with nothing to recover).
func New(name string, opts Options) *Table {
	t := &Table{name: name, opts: opts, state: StateAlive}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// NewRecovering creates a table in INIT for the restore paths.
func NewRecovering(name string, opts Options) *Table {
	t := &Table{name: name, opts: opts, state: StateInit}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// State returns the current state.
func (t *Table) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// Transition moves the state machine along a legal edge.
func (t *Table) Transition(to State) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.transitionLocked(to)
}

func (t *Table) transitionLocked(to State) error {
	if !CanTransition(t.state, to) {
		return &ErrBadTransition{From: t.state, To: to}
	}
	t.state = to
	t.cond.Broadcast()
	return nil
}

// acceptingAdds reports whether adds are allowed: tables take new data while
// alive and during disk recovery (§4.1 step 2: "the server also accepts new
// data as soon as it starts recovery"). Memory recovery is seconds long and
// accepts nothing (§4.3).
func (t *Table) acceptingAdds() bool {
	return t.state == StateAlive || t.state == StateDiskRecovery
}

func (t *Table) acceptingQueries() bool {
	return t.state == StateAlive || t.state == StateDiskRecovery
}

// AddRows transposes rows into a batch and ingests it with AddBatch.
func (t *Table) AddRows(rows []rowblock.Row, now int64) error {
	b, err := rowblock.FromRows(rows)
	if err != nil {
		return err
	}
	return t.AddBatch(b, now)
}

// AddBatch ingests a batch, appending whole column vectors to the
// in-progress block and sealing at each block-full boundary. It is the one
// function that applies rows to a table: live ingest and WAL replay both end
// here. A batch whose column types conflict with the in-progress block is
// rejected whole — a conflict can only involve the block that was open when
// the call began, so nothing has been applied when it is reported.
func (t *Table) AddBatch(b *rowblock.Batch, now int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.acceptingAdds() {
		return fmt.Errorf("%w: %v", ErrNotAccepting, t.state)
	}
	for b.Rows() > 0 {
		if t.active == nil {
			t.active = rowblock.NewBuilder(now)
			t.active.Reserve(t.reserve)
			t.reserve = 0
		}
		n, err := t.active.AppendBatch(b)
		if err != nil {
			return err
		}
		if t.active.Full() {
			if err := t.sealActiveLocked(); err != nil {
				return err
			}
		}
		if n == b.Rows() {
			break
		}
		b = b.Slice(n, b.Rows())
	}
	return nil
}

// Reserve sizes the table's next builder for rows rows
// (rowblock.Builder.Reserve). Crash replay calls it with the log tail's row
// count before it applies the tail.
func (t *Table) Reserve(rows int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reserve = rows
}

// sealActiveLocked seals the in-progress builder into the block vector.
func (t *Table) sealActiveLocked() error {
	if t.active == nil || t.active.Rows() == 0 {
		t.active = nil
		return nil
	}
	rb, err := t.active.Seal()
	if err != nil {
		return err
	}
	t.active = nil
	t.blocks = append(t.blocks, rb)
	t.starts = append(t.starts, t.sealedEnd)
	t.sealedEnd += int64(rb.Rows())
	t.rowsTotal += int64(rb.Rows())
	t.bytesTotal += rb.Header().Size
	return nil
}

// SealActive force-seals any in-progress rows (used before disk sync and
// before copying to shared memory).
func (t *Table) SealActive() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sealActiveLocked()
}

// Blocks returns a snapshot of the sealed blocks.
func (t *Table) Blocks() []*rowblock.RowBlock {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*rowblock.RowBlock, len(t.blocks))
	copy(out, t.blocks)
	return out
}

// SetEvictHook registers fn to observe blocks leaving the block vector
// (expiration, shutdown copy-out). At most one hook; nil clears it.
func (t *Table) SetEvictHook(fn func([]*rowblock.RowBlock)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.evictHook = fn
}

func (t *Table) notifyEvict(blocks []*rowblock.RowBlock) {
	if len(blocks) == 0 {
		return
	}
	t.mu.Lock()
	hook := t.evictHook
	t.mu.Unlock()
	if hook != nil {
		hook(blocks)
	}
}

// View is one consistent picture of a table for a query: every row applied
// before it was taken is in exactly one of Blocks and Active.
type View struct {
	// Blocks are the sealed blocks overlapping the query's time range.
	Blocks []*rowblock.RowBlock
	// Active is a view of the unsealed in-progress rows (nil when there are
	// none), so data is queryable the moment it arrives. It aliases the
	// builder's vectors — taking it under the lock is O(columns) — and keeps
	// the arrays it aliases alive, even once the builder has grown past them,
	// until the query drops it.
	Active *rowblock.UnsealedView
	// NumBlocks counts all sealed blocks, overlapping or not.
	NumBlocks int
}

// ScanView calls fn once with a view of the table taken in one critical
// section — sealed blocks overlapping [from, to] (time-header prune, §2.1)
// and the unsealed tail together, so a block sealing under a concurrent
// query cannot fall between the two — under query gating: the in-flight
// query count is held for fn's whole duration, so shutdown — which waits for
// queries before releasing block columns — cannot begin while fn still reads
// the blocks. The parallel executor fans the blocks across its worker pool
// inside fn.
func (t *Table) ScanView(from, to int64, fn func(View) error) error {
	t.mu.Lock()
	if !t.acceptingQueries() {
		st := t.state
		t.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrNotAccepting, st)
	}
	t.inflightQry++
	view := View{Blocks: make([]*rowblock.RowBlock, 0, len(t.blocks)), NumBlocks: len(t.blocks)}
	// pinned collects the foreign-memory sources (mapped shm views and store
	// images) of snapshotted blocks, each retained here UNDER the table lock.
	// A remover (expiry, promotion, shutdown) can only release a block's
	// residency reference after popping it from t.blocks under this same
	// lock, so any block the snapshot sees still holds its reference and the
	// Retain cannot fail; the pin then keeps the mapping alive until fn
	// drains.
	var pinned []rowblock.Source
	for _, rb := range t.blocks {
		if !rb.Overlaps(from, to) {
			continue
		}
		if src := rb.Source(); src != nil {
			if !src.Retain() {
				// Unreachable while the residency invariant holds; skipping
				// the block (rather than reading unmapped memory) is the
				// safe degradation if it ever breaks.
				continue
			}
			pinned = append(pinned, src)
		}
		view.Blocks = append(view.Blocks, rb)
	}
	if t.active != nil {
		view.Active = t.active.Snapshot()
	}
	t.mu.Unlock()
	defer func() {
		for _, src := range pinned {
			src.Release()
		}
		t.mu.Lock()
		t.inflightQry--
		t.cond.Broadcast()
		t.mu.Unlock()
	}()

	return fn(view)
}

// SwapBlock replaces old with new in the block vector — the move loop
// swapping a shm-resident block for its heap clone, or a damaged block for
// the store's image of the same rows — or, with a nil new, drops it. A swap
// preserves the block's position and global row index; header-derived
// accounting is unchanged because the two share the header, and a drop takes
// the block's rows and bytes off it. Returns false when old is no longer
// present (expired or copied out) or the table is neither ALIVE nor in
// MEMORY_RECOVERY (an eager start moves its blocks there; after ALIVE,
// shutdown owns the blocks); the caller keeps the old block in that case. On
// success the old block's residency ends under the table lock
// (Source.Evict), so once ForeignBlocks reads 0 no view's file is left; the
// old block is reported to the evict hook so derived state (the decode cache)
// drops entries keyed by its identity, and the caller releases the reference
// its residency held.
func (t *Table) SwapBlock(old, new *rowblock.RowBlock) bool {
	t.mu.Lock()
	if t.state != StateAlive && t.state != StateMemoryRecovery {
		t.mu.Unlock()
		return false
	}
	// From the newest end: the move loop takes blocks newest first.
	for i := len(t.blocks) - 1; i >= 0; i-- {
		if t.blocks[i] == old {
			if new != nil {
				t.blocks[i] = new
			} else {
				t.blocks = append(t.blocks[:i:i], t.blocks[i+1:]...)
				t.starts = append(t.starts[:i:i], t.starts[i+1:]...)
				t.rowsTotal -= int64(old.Rows())
				t.bytesTotal -= old.Header().Size
			}
			if src := old.Source(); src != nil {
				src.Evict(old)
			}
			t.mu.Unlock()
			t.notifyEvict([]*rowblock.RowBlock{old})
			return true
		}
	}
	t.mu.Unlock()
	return false
}

// Pin retains rb's foreign memory for a reader, as ScanView does, when the
// table still holds rb: under the table lock, so a block that has left —
// whose bytes its view may have handed back — is never pinned. The caller
// releases rb.Source() when done. False for a block the table no longer
// holds or whose source is gone.
func (t *Table) Pin(rb *rowblock.RowBlock) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.blocks) - 1; i >= 0; i-- {
		if t.blocks[i] == rb {
			return rb.Source() != nil && rb.Source().Retain()
		}
	}
	return false
}

// StartOf returns the global row index of rb's first row, and false when
// the table does not hold rb.
func (t *Table) StartOf(rb *rowblock.RowBlock) (int64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, b := range t.blocks {
		if b == rb {
			return t.starts[i], true
		}
	}
	return 0, false
}

// ForeignBlocks counts sealed blocks served from a shm segment view, which
// the move loop has yet to take to the heap: the blocks opened in place
// (rowblock.OpenImage), which keep their mapped image. Zero once promotion
// has drained. A block decoded from a mapped store image is not one: it is
// served from its mapping for as long as the table holds it.
func (t *Table) ForeignBlocks() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, rb := range t.blocks {
		if rb.MappedImage() != nil {
			n++
		}
	}
	return n
}

// Expire drops expired or over-budget blocks (oldest first). It aborts with
// ErrDeletesKilled if shutdown starts mid-way (Figure 5c kills DELETEs).
// Returns the number of blocks dropped.
func (t *Table) Expire(now int64) (int, error) {
	t.mu.Lock()
	if t.state != StateAlive {
		st := t.state
		t.mu.Unlock()
		return 0, fmt.Errorf("%w: %v", ErrNotAccepting, st)
	}
	t.inflightDel++
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		t.inflightDel--
		t.cond.Broadcast()
		t.mu.Unlock()
	}()

	var droppedBlocks []*rowblock.RowBlock
	// Expiry removed the blocks from circulation, so it owns releasing their
	// foreign-memory references — after the evict hook, which may still look
	// at block identity (never contents).
	defer func() {
		t.notifyEvict(droppedBlocks)
		rowblock.ReleaseSources(droppedBlocks)
	}()
	for {
		t.mu.Lock()
		if t.killDeletes {
			t.mu.Unlock()
			return len(droppedBlocks), ErrDeletesKilled
		}
		if len(t.blocks) == 0 {
			t.mu.Unlock()
			return len(droppedBlocks), nil
		}
		oldest := t.blocks[0]
		expired := t.opts.MaxAgeSeconds > 0 && oldest.Header().MaxTime < now-t.opts.MaxAgeSeconds
		overBudget := t.opts.MaxBytes > 0 && t.bytesTotal > t.opts.MaxBytes
		if !expired && !overBudget {
			t.mu.Unlock()
			return len(droppedBlocks), nil
		}
		t.blocks = t.blocks[1:]
		t.starts = t.starts[1:]
		t.rowsTotal -= int64(oldest.Rows())
		t.bytesTotal -= oldest.Header().Size
		droppedBlocks = append(droppedBlocks, oldest)
		t.mu.Unlock()
	}
}

// Prepare runs the PREPARE phase of Figure 5(c): transition to PREPARE
// (rejecting new requests), signal in-flight deletes to die, wait for
// queries in flight to complete (an add holds the table lock for its whole
// apply, so none can be in flight here), and seal pending rows so the flush
// to disk sees everything. The caller then flushes to disk and transitions to
// COPY_TO_SHM.
func (t *Table) Prepare() error {
	t.mu.Lock()
	if err := t.transitionLocked(StatePrepare); err != nil {
		t.mu.Unlock()
		return err
	}
	t.killDeletes = true
	t.cond.Broadcast()
	for t.inflightQry > 0 || t.inflightDel > 0 {
		t.cond.Wait()
	}
	err := t.sealActiveLocked()
	t.mu.Unlock()
	return err
}

// UnpersistedBlocks returns sealed blocks not yet written as images, with
// their global row indexes: "only the sections of data that have changed
// since the last synchronization point need to be updated" (§4.1). A block
// counts as persisted when its whole row range is below the index-based
// cursor, so a leading block expired mid-pass never makes a later block look
// covered.
func (t *Table) UnpersistedBlocks() ([]*rowblock.RowBlock, []int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := 0
	for i < len(t.blocks) && t.starts[i]+int64(t.blocks[i].Rows()) <= t.persisted {
		i++
	}
	blocks := make([]*rowblock.RowBlock, len(t.blocks)-i)
	starts := make([]int64, len(blocks))
	copy(blocks, t.blocks[i:])
	copy(starts, t.starts[i:])
	return blocks, starts
}

// MarkPersistedThrough records that every sealed row below end is in an
// image. Monotone, like the store's watermark: an older in-flight pass can
// never roll coverage back.
func (t *Table) MarkPersistedThrough(end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if end > t.persisted {
		t.persisted = end
	}
}

// FirstRow returns the global index of the first row the table still holds
// sealed (the sealed end when it holds none): every image wholly below it
// was dropped by retention and can leave the store.
func (t *Table) FirstRow() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.starts) > 0 {
		return t.starts[0]
	}
	return t.sealedEnd
}

// NextRow returns the global index the next ingested row takes: the rows
// ever sealed (expired ones included) plus the unsealed tail. While a
// table's log mirrors it, this is the log's cursor.
func (t *Table) NextRow() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.active == nil {
		return t.sealedEnd
	}
	return t.sealedEnd + int64(t.active.Rows())
}

// RestoreBlock appends a recovered block at its global row index during
// MEMORY_RECOVERY or DISK_RECOVERY (an expired prefix or a lost image may
// leave start past the sealed end, never before it). Whether the block
// counts as persisted is the caller's to say, with MarkPersistedThrough,
// once it knows which images cover the table. Calls are serialized by the
// table mutex, so concurrent restore workers only race over insertion order.
func (t *Table) RestoreBlock(rb *rowblock.RowBlock, start int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != StateMemoryRecovery && t.state != StateDiskRecovery && t.state != StateInit {
		return fmt.Errorf("%w: RestoreBlock in %v", ErrNotAccepting, t.state)
	}
	if start < t.sealedEnd {
		return fmt.Errorf("table %s: restored block at row %d overlaps sealed rows (end %d)", t.name, start, t.sealedEnd)
	}
	t.blocks = append(t.blocks, rb)
	t.starts = append(t.starts, start)
	t.sealedEnd = start + int64(rb.Rows())
	t.rowsTotal += int64(rb.Rows())
	t.bytesTotal += rb.Header().Size
	return nil
}

// AlignSealedEnd raises a recovering table's sealed end to start, the
// store's watermark, whatever blocks it holds: every row below the watermark
// is in an image, expired or lost with one, so the first row numbered after
// a restore — replayed or new — is numbered at or past it, as the log and
// the store number it. No-op if start is not ahead of the current end.
func (t *Table) AlignSealedEnd(start int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sealedEnd = max(t.sealedEnd, start)
}

// Stats describes a table's current contents.
type Stats struct {
	Name      string
	State     State
	NumBlocks int
	Rows      int64
	Bytes     int64
	// Unsealed counts rows still in the active builder; UnsealedBytes is
	// their pre-compression size. Placement decisions must see unsealed
	// data too, or a leaf absorbing a burst looks deceptively empty.
	Unsealed      int
	UnsealedBytes int64
}

// Stats returns a consistent snapshot of table statistics.
func (t *Table) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	unsealed, unsealedBytes := 0, int64(0)
	if t.active != nil {
		unsealed = t.active.Rows()
		unsealedBytes = t.active.RawBytes()
	}
	return Stats{
		Name:          t.name,
		State:         t.state,
		NumBlocks:     len(t.blocks),
		Rows:          t.rowsTotal,
		Bytes:         t.bytesTotal,
		Unsealed:      unsealed,
		UnsealedBytes: unsealedBytes,
	}
}

// Bytes returns the total compressed bytes across sealed blocks.
func (t *Table) Bytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytesTotal
}

// Rows returns the total sealed row count.
func (t *Table) Rows() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rowsTotal
}

// DropBlocksForShutdown pops up to n leading blocks, with their global row
// indexes, so the shutdown path can release them after copying to shared
// memory (Figure 6 deletes each row block from the heap as it is copied).
// Only legal in COPY_TO_SHM. Safe under concurrent callers (the parallel
// shutdown runs one worker per table, but nothing here assumes that): each
// call atomically claims a disjoint prefix.
func (t *Table) DropBlocksForShutdown(n int) ([]*rowblock.RowBlock, []int64, error) {
	t.mu.Lock()
	if t.state != StateCopyToShm {
		t.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: DropBlocksForShutdown in %v", ErrNotAccepting, t.state)
	}
	n = min(n, len(t.blocks))
	out, starts := t.blocks[:n], t.starts[:n]
	t.blocks, t.starts = t.blocks[n:], t.starts[n:]
	t.mu.Unlock()
	t.notifyEvict(out)
	return out, starts, nil
}
