package shm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentTableSegmentCreation drives the invariant the parallel
// shutdown path relies on: many goroutines, each creating and finishing its
// own distinct table segment under one manager, never interfere. Every
// segment must afterwards open and drain to exactly the blocks written.
func TestConcurrentTableSegmentCreation(t *testing.T) {
	runBothModes(t, func(t *testing.T, noMmap bool) {
		m := newTestManager(t, 1, noMmap)
		const nSegments = 16
		const nBlocks = 3
		var wg sync.WaitGroup
		errs := make(chan error, nSegments)
		for i := 0; i < nSegments; i++ {
			blocks := buildBlocks(t, nBlocks, 50+i)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				segName := fmt.Sprintf("tbl-seg%02d", i)
				w, err := CreateTableSegment(m, segName, fmt.Sprintf("seg%02d", i))
				if err != nil {
					errs <- err
					return
				}
				for _, rb := range blocks {
					if err := w.WriteBlock(rb, false); err != nil {
						errs <- err
						return
					}
				}
				errs <- w.Finish()
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < nSegments; i++ {
			restored, err := drainView(openView(t, m, fmt.Sprintf("tbl-seg%02d", i), fmt.Sprintf("seg%02d", i)))
			if err != nil {
				t.Fatalf("segment %d: %v", i, err)
			}
			if len(restored) != nBlocks {
				t.Errorf("segment %d: %d blocks", i, len(restored))
			}
			rows := 0
			for _, rb := range restored {
				rows += rb.Rows()
			}
			if want := nBlocks * (50 + i); rows != want {
				t.Errorf("segment %d: %d rows, want %d", i, rows, want)
			}
		}
	})
}

// TestConcurrentMetadataWriters hammers WriteMetadata from many goroutines.
// Interleaved writers must never leave a torn or corrupt metadata file: the
// final read decodes cleanly to one of the written images.
func TestConcurrentMetadataWriters(t *testing.T) {
	m := newTestManager(t, 2, false)
	const writers = 8
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			md := &Metadata{Version: LayoutVersion, Created: int64(i)}
			for j := 0; j <= i; j++ {
				md.Segments = append(md.Segments, SegmentInfo{
					Table:   fmt.Sprintf("t%d-%d", i, j),
					Segment: fmt.Sprintf("tbl-t%d-%d", i, j),
				})
			}
			for k := 0; k < 20; k++ {
				if err := m.WriteMetadata(md); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	md, err := m.ReadMetadata()
	if err != nil {
		t.Fatalf("metadata torn after concurrent writes: %v", err)
	}
	// The surviving image must be internally consistent: the writer that
	// stamped Created=i wrote exactly i+1 segments.
	if got, want := len(md.Segments), int(md.Created)+1; got != want {
		t.Errorf("segments = %d, want %d for writer %d", got, want, md.Created)
	}
}

// TestWriterMisuse is the table-driven double-Finish / Finish-after-Abort /
// write-after-terminal matrix: every misuse returns ErrClosed (or nil where
// the operation is defined as an idempotent no-op) and never panics.
func TestWriterMisuse(t *testing.T) {
	newWriter := func(t *testing.T) *TableSegmentWriter {
		t.Helper()
		m := newTestManager(t, 1, false)
		w, err := CreateTableSegment(m, "tbl-m", "m")
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	block := buildBlocks(t, 1, 10)[0]

	cases := []struct {
		name    string
		run     func(w *TableSegmentWriter) error
		wantErr error // nil means the final op must succeed
	}{
		{"double finish", func(w *TableSegmentWriter) error {
			if err := w.Finish(); err != nil {
				t.Fatal(err)
			}
			return w.Finish()
		}, ErrClosed},
		{"finish after abort", func(w *TableSegmentWriter) error {
			if err := w.Abort(); err != nil {
				t.Fatal(err)
			}
			return w.Finish()
		}, ErrClosed},
		{"abort after finish is a no-op", func(w *TableSegmentWriter) error {
			if err := w.Finish(); err != nil {
				t.Fatal(err)
			}
			return w.Abort()
		}, nil},
		{"double abort is a no-op", func(w *TableSegmentWriter) error {
			if err := w.Abort(); err != nil {
				t.Fatal(err)
			}
			return w.Abort()
		}, nil},
		{"write after finish", func(w *TableSegmentWriter) error {
			if err := w.Finish(); err != nil {
				t.Fatal(err)
			}
			return w.WriteBlock(block, false)
		}, ErrClosed},
		{"write after abort", func(w *TableSegmentWriter) error {
			if err := w.Abort(); err != nil {
				t.Fatal(err)
			}
			return w.WriteBlock(block, false)
		}, ErrClosed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWriter(t)
			if err := w.WriteBlock(block, false); err != nil {
				t.Fatal(err)
			}
			err := tc.run(w)
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("got %v, want success", err)
				}
				return
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("got %v, want %v", err, tc.wantErr)
			}
		})
	}
}
