// Package obs is the cross-cutting observability layer: the restart ledger
// (restart.go), per-query traces, a crash-surviving flight recorder, and the
// HTTP exposition every daemon serves.
//
// The paper's evaluation is a breakdown of where restart time goes (§4),
// and its operational story depends on knowing *why* a leaf took the disk
// path instead of shared memory. The flight recorder persists the most
// recent restart-span and lifecycle events in a small file of its own in the
// shared memory directory, written slot by slot with pwrite, so after a
// crash or failed restore the *next* process can read the previous run's
// last recorded phase and report, e.g., "fell back to disk because copy-out
// of table X failed mid-block".
//
// The recorder deliberately mirrors the paper's trust rule for data
// segments — the next process treats the previous contents as evidence, not
// state: every slot is CRC-guarded, a version number guards layout changes,
// and a torn or alien slot is skipped, never trusted.
package obs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"scuba/internal/shm"
)

// RecorderVersion is stamped into the flight recorder's header. It is
// versioned independently of shm.LayoutVersion: the event slot layout can
// change without invalidating table segments and vice versa. A reader that
// finds a different version reports no previous events.
const RecorderVersion uint32 = 1

// recMagic identifies a flight recorder file ("FLT1").
const recMagic uint32 = 0x31544c46

// recorderPath is the ring's file, "<ns>-obs-leaf<id>-flightrec" in the shm
// directory. The "-obs" keeps it out of the leaf's own prefix
// ("<ns>-leaf<id>-"), whose files leaf.Start removes when it falls back to
// disk: the flight recorder must survive exactly that event to explain it.
func recorderPath(dir, ns string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("%s-obs-leaf%d-flightrec", ns, id))
}

// Header layout, little endian:
//
//	u32 magic "FLT1"
//	u32 recorder version
//	u32 capacity (slots)
//	u32 slot size (bytes)
//	u64 next sequence number (total events ever recorded)
//
// Slot layout (fixed size, one event per slot, ring-indexed by seq):
//
//	u32 crc (Castagnoli, over the rest of the slot)
//	u8  kind
//	u8  phase length
//	u16 detail length
//	u64 seq
//	i64 unix microseconds
//	[64]  phase bytes
//	[160] detail bytes
//
// An event write writes the whole slot, body and CRC, then the header's
// next-seq, each with one pwrite. A crash can tear at most the slot being
// written; its CRC will not match and the reader skips it.
const (
	recHeaderSize = 4 + 4 + 4 + 4 + 8
	slotPhaseMax  = 64
	slotDetailMax = 160
	slotFixedSize = 4 + 1 + 1 + 2 + 8 + 8
	recSlotSize   = slotFixedSize + slotPhaseMax + slotDetailMax // 248
	recorderSlots = 1024                                         // a shutdown half of ~170 tables, six span events each
)

var recCRCTable = crc32.MakeTable(crc32.Castagnoli)

// EventKind classifies a flight recorder event.
type EventKind uint8

// Event kinds.
const (
	// EventBegin marks a phase starting.
	EventBegin EventKind = iota + 1
	// EventEnd marks a phase completing successfully.
	EventEnd
	// EventFail marks a phase failing; Detail carries the reason.
	EventFail
	// EventNote is a free-form lifecycle marker (process up, fallback
	// decisions, signals).
	EventNote
)

func (k EventKind) String() string {
	switch k {
	case EventBegin:
		return "begin"
	case EventEnd:
		return "end"
	case EventFail:
		return "fail"
	case EventNote:
		return "note"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one recorded span or lifecycle event.
type Event struct {
	Seq        uint64
	UnixMicros int64
	Kind       EventKind
	Phase      string
	Detail     string
}

// Time converts the event timestamp.
func (e Event) Time() time.Time { return time.UnixMicro(e.UnixMicros) }

// Recorder is a fixed-size ring of events persisted in a file of its own.
// One recorder belongs to one daemon identity (leaf ID); opening it reads
// whatever the previous run left behind, then resets the ring for this run
// while continuing the sequence numbering, so a dump of both runs still
// orders globally. The file is written through on every event, so a crash
// loses at most the event it interrupts; the ring is also kept in memory,
// which Events reads.
type Recorder struct {
	mu       sync.Mutex
	f        *os.File
	ring     []byte // this run's ring, as the file holds it
	capacity int
	nextSeq  uint64
	previous []Event
	clock    func() int64 // unix microseconds; injectable for tests
	closed   bool
}

// RecorderOptions configure OpenFlightRecorder.
type RecorderOptions struct {
	// Dir is the shared memory directory (empty = shm.DefaultDir).
	Dir string
	// Namespace is the cluster namespace; the recorder appends "-obs" so
	// its file survives the data manager's RemoveAll sweeps.
	Namespace string
	// Clock supplies unix microseconds; nil means time.Now. Tests inject
	// fixed clocks for deterministic dumps.
	Clock func() int64
}

// OpenFlightRecorder opens (or creates) the flight recorder for one leaf
// identity. Events recorded by the previous run — even one that crashed
// mid-phase — are available via Previous; recording starts fresh for this
// run with continuing sequence numbers.
func OpenFlightRecorder(id int, opts RecorderOptions) (*Recorder, error) {
	return openRecorder(id, opts, recorderSlots)
}

// openRecorder is OpenFlightRecorder with a ring of capacity events; tests
// use small rings to wrap them.
func openRecorder(id int, opts RecorderOptions, capacity int) (*Recorder, error) {
	ns := opts.Namespace
	if ns == "" {
		ns = "scuba"
	}
	clock := opts.Clock
	if clock == nil {
		clock = func() int64 { return time.Now().UnixMicro() }
	}
	dir := opts.Dir
	if dir == "" {
		dir = shm.DefaultDir
	}
	path := recorderPath(dir, ns, id)
	r := &Recorder{capacity: capacity, clock: clock}

	// Read the previous run's ring, if one survives and is readable.
	if prev, seq, err := readRing(path); err == nil {
		r.previous = prev
		r.nextSeq = seq
	}

	// Write this run's empty ring over it. The previous events live only in
	// r.previous now — matching the data-segment rule that shared memory
	// contents are consumed exactly once.
	b := make([]byte, recHeaderSize+capacity*recSlotSize)
	binary.LittleEndian.PutUint32(b[0:], recMagic)
	binary.LittleEndian.PutUint32(b[4:], RecorderVersion)
	binary.LittleEndian.PutUint32(b[8:], uint32(capacity))
	binary.LittleEndian.PutUint32(b[12:], recSlotSize)
	binary.LittleEndian.PutUint64(b[16:], r.nextSeq)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		if _, err = f.Write(b); err != nil {
			f.Close()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("obs: create flight recorder: %w", err)
	}
	r.f, r.ring = f, b
	return r, nil
}

// errRecUnreadable covers every way a previous ring can be unusable.
var errRecUnreadable = errors.New("obs: flight recorder file unreadable")

// readRing decodes the events of an existing recorder file, oldest first,
// plus the next sequence number to continue from. Torn slots (bad CRC) and
// slots from older laps of the ring are skipped.
func readRing(path string) ([]Event, uint64, error) {
	b, err := os.ReadFile(path)
	if err != nil || len(b) < recHeaderSize {
		return nil, 0, errRecUnreadable
	}
	if binary.LittleEndian.Uint32(b[0:]) != recMagic {
		return nil, 0, errRecUnreadable
	}
	if binary.LittleEndian.Uint32(b[4:]) != RecorderVersion {
		// Layout changed between releases: like a data-segment version
		// skew, the contents are unreadable by this binary.
		return nil, 0, errRecUnreadable
	}
	capacity := int(binary.LittleEndian.Uint32(b[8:]))
	slotSize := int(binary.LittleEndian.Uint32(b[12:]))
	nextSeq := binary.LittleEndian.Uint64(b[16:])
	if capacity <= 0 || slotSize != recSlotSize {
		return nil, 0, errRecUnreadable
	}
	if recHeaderSize+int64(capacity)*recSlotSize > int64(len(b)) {
		return nil, 0, errRecUnreadable
	}
	// A crash may have torn the newest slot (CRC skips it), and the header
	// bump may not have happened for a fully written slot — scan one seq
	// past the header to catch that case.
	events := decodeWindow(b, capacity, nextSeq, nextSeq+1)
	sort.Slice(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })
	maxSeq := nextSeq
	if n := len(events); n > 0 && events[n-1].Seq+1 > maxSeq {
		maxSeq = events[n-1].Seq + 1
	}
	return events, maxSeq, nil
}

// decodeSlot validates one slot against its CRC and expected sequence.
func decodeSlot(slot []byte, wantSeq uint64) (Event, bool) {
	crc := binary.LittleEndian.Uint32(slot[0:])
	if crc32.Checksum(slot[4:], recCRCTable) != crc {
		return Event{}, false
	}
	kind := EventKind(slot[4])
	phaseLen := int(slot[5])
	detailLen := int(binary.LittleEndian.Uint16(slot[6:]))
	seq := binary.LittleEndian.Uint64(slot[8:])
	if seq != wantSeq || phaseLen > slotPhaseMax || detailLen > slotDetailMax {
		return Event{}, false
	}
	ev := Event{
		Seq:        seq,
		UnixMicros: int64(binary.LittleEndian.Uint64(slot[16:])),
		Kind:       kind,
		Phase:      string(slot[slotFixedSize : slotFixedSize+phaseLen]),
		Detail:     string(slot[slotFixedSize+slotPhaseMax : slotFixedSize+slotPhaseMax+detailLen]),
	}
	return ev, true
}

// Record appends one event to the ring. Safe for concurrent use (the copy
// workers of a parallel shutdown record per-table events from their own
// goroutines). Recording on a closed recorder is a no-op.
func (r *Recorder) Record(kind EventKind, phase, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	if len(phase) > slotPhaseMax {
		phase = phase[:slotPhaseMax]
	}
	if len(detail) > slotDetailMax {
		detail = detail[:slotDetailMax]
	}
	seq := r.nextSeq
	off := recHeaderSize + int(seq%uint64(r.capacity))*recSlotSize
	slot := r.ring[off : off+recSlotSize]
	slot[4] = byte(kind)
	slot[5] = byte(len(phase))
	binary.LittleEndian.PutUint16(slot[6:], uint16(len(detail)))
	binary.LittleEndian.PutUint64(slot[8:], seq)
	binary.LittleEndian.PutUint64(slot[16:], uint64(r.clock()))
	copy(slot[slotFixedSize:slotFixedSize+slotPhaseMax], phase)
	for i := slotFixedSize + len(phase); i < slotFixedSize+slotPhaseMax; i++ {
		slot[i] = 0
	}
	copy(slot[slotFixedSize+slotPhaseMax:], detail)
	for i := slotFixedSize + slotPhaseMax + len(detail); i < recSlotSize; i++ {
		slot[i] = 0
	}
	binary.LittleEndian.PutUint32(slot[0:], crc32.Checksum(slot[4:], recCRCTable))
	// Bump the published sequence only after the slot is written: a crash
	// between the two leaves a valid slot one past the header, which
	// readRing's one-past scan still finds. A failed write loses its event
	// from the file alone: the ring is evidence, never state.
	r.f.WriteAt(slot, int64(off)) //nolint:errcheck
	r.nextSeq = seq + 1
	binary.LittleEndian.PutUint64(r.ring[16:], r.nextSeq)
	r.f.WriteAt(r.ring[16:24], 16) //nolint:errcheck
}

// Previous returns the events recovered from the previous run (oldest
// first), or nil when none survived.
func (r *Recorder) Previous() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.previous...)
}

// Events returns this run's events so far, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return decodeWindow(r.ring, r.capacity, r.nextSeq, r.nextSeq)
}

// decodeWindow decodes the ring's live window — the last min(nextSeq,
// capacity) sequence numbers — up to end, skipping any slot whose CRC or
// sequence is wrong.
func decodeWindow(b []byte, capacity int, nextSeq, end uint64) []Event {
	var events []Event
	lo := uint64(0)
	if nextSeq > uint64(capacity) {
		lo = nextSeq - uint64(capacity)
	}
	for seq := lo; seq < end; seq++ {
		slot := b[recHeaderSize+int(seq%uint64(capacity))*recSlotSize:]
		if ev, ok := decodeSlot(slot[:recSlotSize], seq); ok {
			events = append(events, ev)
		}
	}
	return events
}

// Close closes the ring's file. The file survives for the next process,
// which is the whole point.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	return r.f.Close()
}
