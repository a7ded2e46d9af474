// Package scribe simulates Scribe, the distributed messaging system that
// carries log data from Facebook products into Scuba (Figure 1). Data flows
// from log calls into Scribe categories; Scuba "tailer" processes pull each
// table's rows out of Scribe and push batches into leaf servers (§2).
//
// The simulation is an in-process, append-only, category-partitioned message
// bus with tailing readers identified by offset. It preserves the interface
// shape that matters to the reproduction: producers append rows, tailers
// consume in order with explicit offsets and can replay, and the bus retains
// a bounded window of messages.
package scribe

import (
	"errors"
	"fmt"
	"sync"
)

// Message is one log event in a category.
type Message struct {
	Offset  int64
	Payload []byte
}

// Bus is an in-process Scribe: a set of named categories.
type Bus struct {
	mu         sync.Mutex
	categories map[string]*category
	// retain bounds how many messages a category keeps; older messages are
	// dropped (Scribe gives at-most-bounded buffering, not infinite replay).
	retain int
}

type category struct {
	mu    sync.Mutex
	cond  *sync.Cond
	base  int64 // offset of msgs[0]
	msgs  [][]byte
	limit int
}

// ErrTooOld is returned when a tailer asks for an offset that has been
// dropped by retention; the tailer must skip forward (data loss, which
// Scuba tolerates: it does not guarantee full query results).
var ErrTooOld = errors.New("scribe: offset before retention window")

// NewBus creates a bus retaining up to retain messages per category
// (0 means a large default).
func NewBus(retain int) *Bus {
	if retain <= 0 {
		retain = 1 << 20
	}
	return &Bus{categories: make(map[string]*category), retain: retain}
}

func (b *Bus) category(name string) *category {
	b.mu.Lock()
	defer b.mu.Unlock()
	c, ok := b.categories[name]
	if !ok {
		c = &category{limit: b.retain}
		c.cond = sync.NewCond(&c.mu)
		b.categories[name] = c
	}
	return c
}

// Append adds one message to a category and returns its offset.
func (b *Bus) Append(categoryName string, payload []byte) int64 {
	c := b.category(categoryName)
	c.mu.Lock()
	defer c.mu.Unlock()
	off := c.base + int64(len(c.msgs))
	c.msgs = append(c.msgs, payload)
	if len(c.msgs) > c.limit {
		drop := len(c.msgs) - c.limit
		c.msgs = c.msgs[drop:]
		c.base += int64(drop)
	}
	c.cond.Broadcast()
	return off
}

// End returns the offset one past the newest message.
func (b *Bus) End(categoryName string) int64 {
	c := b.category(categoryName)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.base + int64(len(c.msgs))
}

// Read returns up to max messages starting at offset, without blocking.
// It returns ErrTooOld (with the new minimum offset) when the offset has
// been dropped by retention.
func (b *Bus) Read(categoryName string, offset int64, max int) ([]Message, error) {
	c := b.category(categoryName)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readLocked(offset, max)
}

func (c *category) readLocked(offset int64, max int) ([]Message, error) {
	if offset < c.base {
		return nil, fmt.Errorf("%w: want %d, oldest %d", ErrTooOld, offset, c.base)
	}
	idx := int(offset - c.base)
	if idx >= len(c.msgs) {
		return nil, nil
	}
	end := idx + max
	if end > len(c.msgs) {
		end = len(c.msgs)
	}
	out := make([]Message, end-idx)
	for i := idx; i < end; i++ {
		out[i-idx] = Message{Offset: c.base + int64(i), Payload: c.msgs[i]}
	}
	return out, nil
}

// Oldest returns the offset of the oldest retained message (equal to End
// for an empty category).
func (b *Bus) Oldest(categoryName string) (int64, error) {
	c := b.category(categoryName)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.base, nil
}

// Source is the read side of Scribe as tailers consume it. The in-process
// Bus and the network Client both satisfy it, so tailers run unchanged
// in-process and as standalone daemons.
type Source interface {
	Read(category string, offset int64, max int) ([]Message, error)
	Oldest(category string) (int64, error)
}

var _ Source = (*Bus)(nil)

// Tailer is a stateful reader of one category.
type Tailer struct {
	src      Source
	category string
	offset   int64
}

// NewTailer returns a tailer starting at the given offset (use 0 for the
// oldest retained data, or Bus.End for only-new data).
func (b *Bus) NewTailer(category string, offset int64) *Tailer {
	return NewTailer(b, category, offset)
}

// NewTailer builds a tailer over any Source.
func NewTailer(src Source, category string, offset int64) *Tailer {
	return &Tailer{src: src, category: category, offset: offset}
}

// Offset returns the tailer's next offset.
func (t *Tailer) Offset() int64 { return t.offset }

// Rewind sets the offset the next Poll reads from.
func (t *Tailer) Rewind(offset int64) { t.offset = offset }

// Poll reads up to max messages and advances the offset. On ErrTooOld the
// tailer skips to the oldest retained message and reports how many were
// lost.
func (t *Tailer) Poll(max int) (msgs []Message, lost int64, err error) {
	msgs, err = t.src.Read(t.category, t.offset, max)
	if errors.Is(err, ErrTooOld) {
		oldest, oerr := t.src.Oldest(t.category)
		if oerr != nil {
			return nil, 0, oerr
		}
		lost = oldest - t.offset
		t.offset = oldest
		msgs, err = t.src.Read(t.category, t.offset, max)
	}
	if err != nil {
		return nil, lost, err
	}
	if len(msgs) > 0 {
		t.offset = msgs[len(msgs)-1].Offset + 1
	}
	return msgs, lost, nil
}
