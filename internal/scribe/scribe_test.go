package scribe

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestAppendRead(t *testing.T) {
	b := NewBus(0)
	for i := 0; i < 10; i++ {
		off := b.Append("cat", []byte(fmt.Sprintf("msg-%d", i)))
		if off != int64(i) {
			t.Errorf("offset = %d, want %d", off, i)
		}
	}
	msgs, err := b.Read("cat", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 10 {
		t.Fatalf("read %d messages", len(msgs))
	}
	for i, m := range msgs {
		if string(m.Payload) != fmt.Sprintf("msg-%d", i) || m.Offset != int64(i) {
			t.Errorf("msg %d = %q @%d", i, m.Payload, m.Offset)
		}
	}
	// Partial reads.
	msgs, err = b.Read("cat", 7, 2)
	if err != nil || len(msgs) != 2 || msgs[0].Offset != 7 {
		t.Errorf("partial read: %v, %v", msgs, err)
	}
	// Reading at the end returns nothing.
	msgs, err = b.Read("cat", 10, 5)
	if err != nil || len(msgs) != 0 {
		t.Errorf("end read: %v, %v", msgs, err)
	}
}

func TestEnd(t *testing.T) {
	b := NewBus(0)
	if b.End("c") != 0 {
		t.Error("empty End != 0")
	}
	b.Append("c", []byte("x"))
	b.Append("c", []byte("y"))
	if b.End("c") != 2 {
		t.Errorf("End = %d", b.End("c"))
	}
}

func TestRetentionDropsOldest(t *testing.T) {
	b := NewBus(5)
	for i := 0; i < 12; i++ {
		b.Append("c", []byte{byte(i)})
	}
	if _, err := b.Read("c", 0, 10); !errors.Is(err, ErrTooOld) {
		t.Errorf("err = %v", err)
	}
	msgs, err := b.Read("c", 7, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 5 || msgs[0].Offset != 7 {
		t.Errorf("msgs = %v", msgs)
	}
}

func TestTailerPoll(t *testing.T) {
	b := NewBus(0)
	for i := 0; i < 25; i++ {
		b.Append("c", []byte{byte(i)})
	}
	tl := b.NewTailer("c", 0)
	total := 0
	for {
		msgs, lost, err := tl.Poll(10)
		if err != nil || lost != 0 {
			t.Fatalf("poll: %v lost %d", err, lost)
		}
		if len(msgs) == 0 {
			break
		}
		total += len(msgs)
	}
	if total != 25 {
		t.Errorf("polled %d", total)
	}
	if tl.Offset() != 25 {
		t.Errorf("offset = %d", tl.Offset())
	}
	// New appends resume from the saved offset.
	b.Append("c", []byte("new"))
	msgs, _, err := tl.Poll(10)
	if err != nil || len(msgs) != 1 || string(msgs[0].Payload) != "new" {
		t.Errorf("resume: %v, %v", msgs, err)
	}
}

func TestTailerSkipsLostData(t *testing.T) {
	b := NewBus(4)
	for i := 0; i < 10; i++ {
		b.Append("c", []byte{byte(i)})
	}
	tl := b.NewTailer("c", 0)
	msgs, lost, err := tl.Poll(100)
	if err != nil {
		t.Fatal(err)
	}
	if lost != 6 {
		t.Errorf("lost = %d", lost)
	}
	if len(msgs) != 4 || msgs[0].Offset != 6 {
		t.Errorf("msgs = %v", msgs)
	}
}

func TestCategoriesIsolated(t *testing.T) {
	b := NewBus(0)
	b.Append("a", []byte("1"))
	b.Append("b", []byte("2"))
	msgs, err := b.Read("a", 0, 10)
	if err != nil || len(msgs) != 1 || string(msgs[0].Payload) != "1" {
		t.Errorf("category a: %v", msgs)
	}
	if msgs, err := b.Read("b", 0, 10); err != nil || len(msgs) != 1 || string(msgs[0].Payload) != "2" {
		t.Errorf("category b: %v", msgs)
	}
}

func TestConcurrentProducersAndTailers(t *testing.T) {
	b := NewBus(0)
	const producers, perProducer = 4, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				b.Append("c", []byte("x"))
			}
		}()
	}
	var consumed int
	var cwg sync.WaitGroup
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		tl := b.NewTailer("c", 0)
		for consumed < producers*perProducer {
			msgs, _, err := tl.Poll(64)
			if err != nil {
				t.Errorf("poll: %v", err)
				return
			}
			consumed += len(msgs)
		}
	}()
	wg.Wait()
	cwg.Wait()
	if consumed != producers*perProducer {
		t.Errorf("consumed %d", consumed)
	}
}
