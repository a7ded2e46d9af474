// Package wal gives a leaf crash-path parity with its clean-restart path: a
// per-table write-ahead log on the ingest path, so crash recovery is "load
// the store's block images + replay the log tail past their watermark"
// (internal/disk holds the images and the watermark; this package holds only
// the log).
//
// Layout, per table, under the log root:
//
//	<enc(table)>/wal-<seq>-<start>.log    log segments; <start> is the global
//	                                      row index of the segment's first
//	                                      record, so truncation and replay
//	                                      never parse a segment to place it
//	<enc(table)>/quarantined              marker: this table's log stopped
//	                                      mirroring memory (a batch was
//	                                      rejected mid-apply); crash recovery
//	                                      keeps the images and skips the log
//	                                      until the next restart resets it
//
// A log is emptied (ResetTable) once the store holds every row it does: a
// clean shutdown empties each table's log behind the table's last persist,
// so a start after one finds nothing to delete, and a start resets only the
// log of a table it brought back without it.
//
// Appends are group-committed in two stages so the caller can order the log
// and its in-memory apply under one lock without serializing on fsyncs:
// Begin writes the record to the active segment and assigns its row indexes,
// and the returned Commit's Wait blocks until an fsync covers the record.
// The first waiter to find no fsync in flight leads one for everything
// written so far, outside the table's lock, so Begin never waits out an
// fsync; waiters that arrive meanwhile share the next. The caller only acks
// its client after Wait returns, so acked rows are always durable; a batch
// lost to a torn tail write was by construction never acked.
//
// Any write or fsync failure on the append path quarantines the table: the
// failed record's bytes may sit mid-segment and become durable on a later
// successful fsync of the same fd, so the log can never be trusted to mirror
// the table again. Quarantine is only honored once its marker file is
// durable — if the marker itself cannot be persisted the table log enters a
// failed state and every subsequent append is refused, because acking
// without either durable WAL coverage or a durable quarantine marker risks
// silent acked-row loss after a crash.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"scuba/internal/disk"
	"scuba/internal/fault"
	"scuba/internal/metrics"
	"scuba/internal/rowblock"
)

// segmentBytes rotates the active segment past this size. Truncation
// deletes whole closed segments, so smaller segments reclaim space sooner at
// the cost of more files.
const segmentBytes = 4 << 20

// Options configure a Log.
type Options struct {
	// Metrics, when non-nil, receives wal.* counters (append rows, fsyncs,
	// truncated segments, replayed rows).
	Metrics *metrics.Registry
}

// ErrClosed is returned for operations on a closed Log.
var ErrClosed = errors.New("wal: log closed")

// ErrGap means the log tail does not reach back to the store's watermark:
// rows in between are in neither an image nor the log. Recovery keeps the
// images and drops the tail.
var ErrGap = errors.New("wal: gap between image watermark and log tail")

// Log is one leaf's write-ahead log.
type Log struct {
	dir          string
	opts         Options
	segmentBytes int64 // the constant unless a test shrinks it

	mu     sync.Mutex
	tables map[string]*tableLog
	closed bool
}

// tableLog is one table's active segment and group-commit state.
type tableLog struct {
	dir string

	mu   sync.Mutex
	cond *sync.Cond
	f    *os.File // active segment; nil until the first append
	size int64    // bytes written to the active segment
	seq  int      // active segment sequence number
	next int64    // global row index the next append starts at
	rec  []byte   // record scratch, reused across appends under mu

	appendSeq int64 // records written
	syncedSeq int64 // records durably fsynced
	// syncing is set while a leader's fsync runs with mu released. Waiters
	// sleep on cond until it clears, and so do rotation and close, which
	// close the fd; an append that need not rotate never waits for it.
	syncing     bool
	quarantined bool
	// failed is set when the quarantine marker itself could not be persisted
	// (disk full, say): the quarantine exists only in memory, so a crashed
	// successor would take the WAL path and silently drop the acked tail.
	// Every append and wait is refused with this error instead.
	failed error
	closed bool
}

// Open opens (creating if needed) the log rooted at dir.
func Open(dir string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create root: %w", err)
	}
	return &Log{dir: dir, opts: opts, segmentBytes: segmentBytes, tables: make(map[string]*tableLog)}, nil
}

// Dir returns the log root.
func (l *Log) Dir() string { return l.dir }

func (l *Log) tableDir(table string) string {
	return filepath.Join(l.dir, disk.EncodeTableName(table))
}

func (l *Log) counter(name string) *metrics.Counter {
	if l.opts.Metrics == nil {
		return nil
	}
	return l.opts.Metrics.Counter(name)
}

func addCount(c *metrics.Counter, n int64) {
	if c != nil {
		c.Add(n)
	}
}

// ---- Segment file naming ----

type segFile struct {
	seq   int
	start int64
	name  string
}

func parseSegFile(name string) (segFile, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return segFile{}, false
	}
	core := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	seqStr, startStr, ok := strings.Cut(core, "-")
	if !ok {
		return segFile{}, false
	}
	seq, err1 := strconv.Atoi(seqStr)
	start, err2 := strconv.ParseInt(startStr, 10, 64)
	if err1 != nil || err2 != nil {
		return segFile{}, false
	}
	return segFile{seq: seq, start: start, name: name}, true
}

func listSegments(dir string) ([]segFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []segFile
	for _, e := range entries {
		if sf, ok := parseSegFile(e.Name()); ok {
			out = append(out, sf)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out, nil
}

// ---- Append path ----

// tableLogFor returns (creating if needed) the table's log state. A new
// tableLog continues after the highest existing segment; its cursor is
// cursor when known (>= 0, from SetCursor) or else from scanning the newest
// segment's records.
func (l *Log) tableLogFor(table string, cursor int64) (*tableLog, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if tl, ok := l.tables[table]; ok {
		return tl, nil
	}
	dir := l.tableDir(table)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: table dir: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	tl := newTableLog(dir, max(cursor, 0))
	if _, err := os.Stat(filepath.Join(dir, quarantineMarker)); err == nil {
		tl.quarantined = true
	}
	if n := len(segs); n > 0 {
		tl.seq = segs[n-1].seq
		if cursor < 0 {
			if tl.next, err = scanSegmentEnd(filepath.Join(dir, segs[n-1].name), segs[n-1].start); err != nil {
				return nil, err
			}
		}
	}
	l.tables[table] = tl
	return tl, nil
}

// newTableLog returns the state of an empty, unquarantined log in dir whose
// next append starts at row next.
func newTableLog(dir string, next int64) *tableLog {
	tl := &tableLog{dir: dir, next: next}
	tl.cond = sync.NewCond(&tl.mu)
	return tl
}

// scanSegmentEnd walks a segment's records to find the row index after its
// last intact record (a torn tail is skipped, matching replay).
func scanSegmentEnd(path string, start int64) (int64, error) {
	var sr segmentReader
	defer sr.close()
	if err := sr.open(path); err != nil {
		return 0, err
	}
	end := start
	for sr.left > 0 {
		rec, _, err := sr.next()
		if err != nil {
			break // torn or corrupt tail: appends continue after the last good record
		}
		end = rec.start + int64(rec.count)
	}
	return end, nil
}

// Commit is the durability handle for one record Begin reserved: the record
// is in the active segment and the cursor advanced; Wait blocks until an
// fsync covers it.
type Commit struct {
	log *Log
	tl  *tableLog
	seq int64
}

// Begin writes one batch's record — frame is the batch frame exactly as it
// arrived, rows its row count — into the table's active segment at the log
// cursor, which mirrors the table's cumulative accepted-row count, and
// returns a Commit to Wait on for durability. The caller must apply the
// batch to the table in the same order it calls Begin (hold a per-table
// lock across both), or record row indexes stop matching the table's row
// order and crash replay splices batches wrongly around the image
// watermark. A nil Commit with nil error means the batch is not covered:
// empty, or the table is quarantined (its log already stopped mirroring
// memory; crash recovery takes the disk path, so there is nothing to wait
// for).
func (l *Log) Begin(table string, frame []byte, rows int) (*Commit, error) {
	if rows == 0 {
		return nil, nil
	}
	if err := fault.Inject(fault.SiteWALAppend); err != nil {
		return nil, fmt.Errorf("wal: append %s: %w", table, err)
	}
	tl, err := l.tableLogFor(table, -1)
	if err != nil {
		return nil, err
	}
	seq, err := tl.begin(frame, rows, l.segmentBytes)
	if err != nil {
		return nil, fmt.Errorf("wal: append %s: %w", table, err)
	}
	if seq == 0 {
		return nil, nil // quarantined: dropped, caller acks under degraded durability
	}
	addCount(l.counter("wal.append_rows"), int64(rows))
	return &Commit{log: l, tl: tl, seq: seq}, nil
}

// begin reserves and writes one record, returning its commit sequence (0
// when the quarantined table dropped it). It rotates an active segment of
// rotateAt bytes or more first.
func (tl *tableLog) begin(frame []byte, rows int, rotateAt int64) (int64, error) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	for {
		if tl.closed {
			return 0, ErrClosed
		}
		if tl.failed != nil {
			return 0, tl.failed
		}
		if tl.quarantined {
			return 0, nil
		}
		if tl.f != nil && tl.size < rotateAt {
			break
		}
		if !tl.syncing {
			if err := tl.rotateLocked(); err != nil {
				return 0, err
			}
			break
		}
		// Rotation closes the fd a leader is fsyncing: wait that fsync out,
		// then look again — it may have quarantined the table.
		tl.cond.Wait()
	}
	tl.rec = appendRecord(tl.rec[:0], tl.next, rows, frame)
	rec := tl.rec
	// Chaos runs corrupt the framed record in flight; replay must refuse it.
	fault.CorruptBytes(fault.SiteWALAppend, rec)
	if _, err := tl.f.Write(rec); err != nil {
		// A short write may have landed part of the record; nothing written
		// after it could be replayed safely, so the log is done mirroring
		// memory.
		if qerr := tl.quarantineLocked(); qerr != nil {
			err = errors.Join(err, qerr)
		}
		return 0, err
	}
	tl.size += int64(len(rec))
	tl.next += int64(rows)
	tl.appendSeq++
	return tl.appendSeq, nil
}

// Wait blocks until the reserved record is durable. A nil return means the
// caller may ack: either the fsync covering the record completed, or the
// table was quarantined with a durable marker — WAL coverage is waived and
// the rows fall back to the pre-WAL durability model (disk write-behind),
// exactly like every later append to a quarantined table. A non-nil return
// (log closed, or quarantine marker unpersistable) means the batch must be
// nacked.
//
// A waiter that finds no fsync in flight leads one, covering every record
// written so far; the others wait for it, and a record written while it
// runs waits for the next leader.
func (c *Commit) Wait() error {
	tl := c.tl
	tl.mu.Lock()
	defer tl.mu.Unlock()
	for tl.syncedSeq < c.seq {
		if tl.failed != nil {
			return tl.failed
		}
		if tl.quarantined {
			return nil
		}
		if tl.closed {
			return ErrClosed
		}
		if tl.syncing {
			tl.cond.Wait()
			continue
		}
		// A failure quarantines or fails the table; the loop re-checks both.
		if err := tl.syncLocked(true); err == nil {
			addCount(c.log.counter("wal.fsyncs"), 1)
		}
	}
	return nil
}

// syncLocked fsyncs the active segment, marks the records written before it
// durable — never one written while it ran — and wakes the waiters. A leader
// (lead) runs the fsync with mu released and syncing set, so neither Begin
// nor a waiter checking its own record is held up by it; rotation and close,
// which close the fd right after, run it holding mu. On failure the table is
// quarantined: the un-synced record bytes stay mid-segment and a later
// successful fsync of the same fd would make them durable anyway, misaligned
// with what the caller was told — so the log must never be trusted again.
// Called with tl.mu held and no fsync in flight; returns with mu held.
func (tl *tableLog) syncLocked(lead bool) error {
	upTo, f := tl.appendSeq, tl.f
	if lead {
		tl.syncing = true
		tl.mu.Unlock()
	}
	err := fault.Inject(fault.SiteWALSync)
	if err == nil && f != nil {
		err = f.Sync()
	}
	if lead {
		tl.mu.Lock()
		tl.syncing = false
	}
	defer tl.cond.Broadcast()
	if err != nil {
		if qerr := tl.quarantineLocked(); qerr != nil {
			err = errors.Join(err, qerr)
		}
		return err
	}
	tl.syncedSeq = upTo
	return nil
}

// quarantineLocked marks the table's log as no longer mirroring memory and
// persists the marker. It wakes group-commit waiters (Wait acks them under
// the degraded model once the marker is durable). If the marker cannot be
// persisted, the tableLog enters the failed state — returned here and by
// every later append — because an in-memory-only quarantine would let a
// post-crash recovery take the WAL path and silently lose the acked tail.
// Called with tl.mu held.
func (tl *tableLog) quarantineLocked() error {
	if !tl.quarantined {
		tl.quarantined = true
		if err := persistQuarantine(tl.dir); err != nil {
			tl.failed = fmt.Errorf("wal: quarantine marker: %w", err)
		}
	}
	tl.cond.Broadcast()
	return tl.failed
}

// rotateLocked fsyncs and closes the active segment (closed segments are
// always durable) and opens the next one, named by its first row index.
// Called with tl.mu held and no fsync in flight.
func (tl *tableLog) rotateLocked() error {
	if tl.f != nil {
		if err := tl.syncLocked(false); err != nil {
			return err
		}
		if err := tl.f.Close(); err != nil {
			return err
		}
		tl.f = nil
	}
	tl.seq++
	name := fmt.Sprintf("wal-%08d-%d.log", tl.seq, tl.next)
	f, err := os.OpenFile(filepath.Join(tl.dir, name), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	tl.f = f
	tl.size = 0
	return disk.SyncDir(tl.dir)
}

// Rotate starts the table's next segment at the cursor, after waiting out a
// leader's fsync as Begin's rotation does. A leaf rotates before the batch
// that fills its builder, so Truncate behind that seal frees every row before
// it. An empty segment or a quarantined log is left as it is.
func (l *Log) Rotate(table string) error {
	tl, err := l.tableLogFor(table, -1)
	if err != nil {
		return err
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	for tl.syncing {
		tl.cond.Wait()
	}
	switch {
	case tl.closed:
		return ErrClosed
	case tl.failed != nil:
		return tl.failed
	case tl.quarantined || tl.size == 0:
		return nil
	}
	return tl.rotateLocked()
}

// ---- Truncation ----

// Truncate deletes closed segments whose every record is below the store's
// watermark w: a segment is disposable once its successor's first row index
// is <= w. The active (newest) segment is never deleted. Returns the number
// of segments removed. A closed Log refuses, holding its lock through the
// removals: a persist that outlives its log (an in-process crash drops the
// leaf, not its goroutines) must not delete what a successor is replaying.
func (l *Log) Truncate(table string, w int64) (int, error) {
	if err := fault.Inject(fault.SiteWALTruncate); err != nil {
		return 0, fmt.Errorf("wal: truncate %s: %w", table, err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	dir := l.tableDir(table)
	segs, err := listSegments(dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].start > w {
			break
		}
		if err := os.Remove(filepath.Join(dir, segs[i].name)); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}

// ---- Cursor and lifecycle management ----

// SetCursor installs the table's next row index after a recovery decided
// where the log resumes (the end of replay, or the restored row count after
// a non-WAL restore), without a scan. Appends continue into a fresh segment.
func (l *Log) SetCursor(table string, next int64) error {
	tl, err := l.tableLogFor(table, next)
	if err != nil {
		return err
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.next = next
	return nil
}

// Cursor returns the table's next row index (0 for unknown tables).
func (l *Log) Cursor(table string) int64 {
	l.mu.Lock()
	tl, ok := l.tables[table]
	l.mu.Unlock()
	if !ok {
		return 0
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.next
}

const quarantineMarker = "quarantined"

// Quarantine marks a table's log as no longer mirroring memory (a batch was
// rejected mid-apply, so row indexes diverged). Crash recovery of the table
// takes the disk path until a restart resets the log. The marker is a file,
// so it survives the crash it is protecting against. A non-nil return means
// the marker could not be persisted: the caller must nack (and the log
// refuses all further appends to the table), because an in-memory-only
// quarantine would not survive a crash and recovery would take the WAL path
// missing the acked tail.
func (l *Log) Quarantine(table string) error {
	tl, err := l.tableLogFor(table, -1)
	if err != nil {
		return err
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.quarantineLocked()
}

// persistQuarantine durably creates the quarantine marker file.
func persistQuarantine(dir string) error {
	f, err := os.Create(filepath.Join(dir, quarantineMarker))
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return disk.SyncDir(dir)
}

// Quarantined reports whether the table's log is quarantined.
func (l *Log) Quarantined(table string) bool {
	l.mu.Lock()
	if tl, ok := l.tables[table]; ok {
		l.mu.Unlock()
		tl.mu.Lock()
		defer tl.mu.Unlock()
		return tl.quarantined
	}
	l.mu.Unlock()
	_, err := os.Stat(filepath.Join(l.tableDir(table), quarantineMarker))
	return err == nil
}

// Tables lists the tables with a log directory, sorted. A directory without
// segments is a log that was reset and has taken no append since: it covers
// its table trivially.
func (l *Log) Tables() ([]string, error) { return disk.TableDirs(l.dir) }

// Size is the bytes of one table's log segments, by the directory listing.
func (l *Log) Size(table string) int64 { return disk.DirSize(l.tableDir(table)) }

// ResetTable empties one table's log and starts it over with the cursor at
// next, once the store holds every row the log does: a clean shutdown calls
// it behind the table's last persist, whose watermark is durable first, and
// a start for a table it brought back without the log, which then no longer
// matches memory. It closes the active segment and unlinks every segment and
// the quarantine marker; the empty directory stays, a log that covers its
// table trivially (Tables). An empty log unlinks nothing. What is left is a
// state the reset knows without looking again (empty, sequence 0, not
// quarantined), and it is installed as it is.
func (l *Log) ResetTable(table string, next int64) error {
	l.mu.Lock()
	if tl, ok := l.tables[table]; ok {
		tl.closeFile()
		delete(l.tables, table)
	}
	l.mu.Unlock()
	dir := l.tableDir(table)
	entries, err := os.ReadDir(dir)
	switch {
	case os.IsNotExist(err):
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("wal: table dir: %w", err)
		}
	case err != nil:
		return err
	}
	for _, e := range entries {
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.tables[table] = newTableLog(dir, next)
	return nil
}

// closeFile waits out an in-flight leader, fsyncs what no fsync has covered
// yet (a failure quarantines, as on the append path) and closes the active
// segment. Waiters it did not cover are nacked with ErrClosed.
func (tl *tableLog) closeFile() {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	for tl.syncing {
		tl.cond.Wait()
	}
	if tl.f != nil {
		if tl.appendSeq > tl.syncedSeq {
			tl.syncLocked(false) //nolint:errcheck // waiters read the outcome off the table's state
		}
		tl.f.Close() //nolint:errcheck
		tl.f = nil
	}
	tl.closed = true
	tl.cond.Broadcast()
}

// Close flushes and closes every table log. The Log is unusable afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	tls := make([]*tableLog, 0, len(l.tables))
	for _, tl := range l.tables {
		tls = append(tls, tl)
	}
	l.mu.Unlock()
	for _, tl := range tls {
		tl.closeFile()
	}
	return nil
}

// ---- Replay ----

// replayRing is how many batches a replay decodes into, in turn: the one fn
// applies, the one the reader decodes into, and one sent between them.
const replayRing = 3

// ReplayFrom streams the log tail of one table, record by record, in order,
// starting at row index from (records straddling it are sliced). Before the
// first batch it calls reserve, when non-nil, with the tail's rows as the
// records' heads count them, capped at rowblock.MaxRows. fn receives each
// batch, decoded into the column vectors live ingest applied and valid only
// until fn returns; returning an error aborts the replay. A torn record at a
// segment's tail is discarded (it was never acked); bad records anywhere else
// return ErrCorrupt. A log whose tail starts after from returns ErrGap.
// Returns (records applied, rows applied, next row index); wal.replay_rows
// counts the rows however it ends. A reader goroutine decodes ahead while
// the caller's applies, and is stopped before ReplayFrom returns.
func (l *Log) ReplayFrom(table string, from int64, reserve func(rows int), fn func(*rowblock.Batch) error) (int, int64, int64, error) {
	dir := l.tableDir(table)
	segs, err := listSegments(dir)
	if err != nil {
		return 0, 0, from, err
	}
	if reserve != nil {
		reserve(tailRows(dir, segs, from))
	}
	// The reader decodes into a batch again replayRing records after sending
	// it; with room for replayRing-2 in the channel, fn is done with it by then.
	out, done := make(chan *rowblock.Batch, replayRing-2), make(chan struct{})
	var readErr error
	go func() {
		defer close(out)
		readErr = readTail(table, dir, segs, from, out, done)
	}()
	records, rowsApplied := 0, int64(0)
	defer func() {
		close(done)
		for range out { // closed once the reader has closed its segment
		}
		addCount(l.counter("wal.replay_rows"), rowsApplied)
	}()
	for b := range out {
		if err := fn(b); err != nil {
			return records, rowsApplied, from + rowsApplied, err
		}
		records++
		rowsApplied += int64(b.Rows())
	}
	return records, rowsApplied, from + rowsApplied, readErr
}

// readTail is ReplayFrom's reader: it decodes the records of segs past row
// index pos, in order, into a ring of batches and sends them on out until
// done closes or a record fails.
func readTail(table, dir string, segs []segFile, pos int64, out chan<- *rowblock.Batch, done <-chan struct{}) error {
	var sr segmentReader
	defer sr.close()
	var ring [replayRing]rowblock.Batch
	sent := 0
	for i, sg := range segs {
		// A segment is skippable when its successor starts at or below pos:
		// every record in it is then below the watermark.
		if i+1 < len(segs) && segs[i+1].start <= pos {
			continue
		}
		if err := fault.Inject(fault.SiteWALReplay); err != nil {
			return fmt.Errorf("wal: replay %s: %w", table, err)
		}
		if err := sr.open(filepath.Join(dir, sg.name)); err != nil {
			return err
		}
		for off := 0; sr.left > 0; {
			rec, used, derr := sr.next()
			if derr != nil {
				// A record that runs past EOF (used == 0) or CRC-fails as the
				// file's final record is a torn tail: its fsync never
				// completed, the batch was never acked, drop it and move to
				// the next segment (the continuity check below catches any
				// real loss). A bad record with intact records after it is
				// corruption — data past it may be acked, so replay aborts.
				if errors.Is(derr, errTorn) && (used == 0 || sr.left == 0) {
					break
				}
				if errors.Is(derr, errTorn) || errors.Is(derr, ErrCorrupt) {
					derr = ErrCorrupt // anything else is a failed read
				}
				return fmt.Errorf("wal: %s %s at offset %d: %w", table, sg.name, off, derr)
			}
			off += used
			end := rec.start + int64(rec.count)
			if end <= pos {
				continue
			}
			if rec.start > pos {
				return fmt.Errorf("%w: %s needs row %d, log resumes at %d", ErrGap, table, pos, rec.start)
			}
			b := &ring[sent%replayRing]
			if err := rec.decode(b); err != nil {
				return fmt.Errorf("wal: %s %s at offset %d: %w", table, sg.name, off-used, err)
			}
			if rec.start < pos {
				b = b.Slice(int(pos-rec.start), b.Rows())
			}
			select {
			case out <- b:
			case <-done:
				return nil
			}
			pos = end
			sent++
		}
	}
	return nil
}
