package shm

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func newTestManager(t *testing.T, leafID int, disableMmap bool) *Manager {
	t.Helper()
	m := NewManager(leafID, Options{Dir: t.TempDir(), Namespace: "test"})
	m.noMmap = disableMmap
	return m
}

// SegmentExists reports whether the named segment file is present.
func (m *Manager) SegmentExists(name string) bool { return m.SegmentSize(name) > 0 }

// runBothModes runs a subtest under real mmap and under the fallback.
func runBothModes(t *testing.T, fn func(t *testing.T, disableMmap bool)) {
	t.Run("mmap", func(t *testing.T) { fn(t, false) })
	t.Run("fallback", func(t *testing.T) { fn(t, true) })
}

// TestSegmentCreateWriteReopen: a segment one manager's process wrote is
// mapped whole, read-only, by a fresh manager over the same directory.
func TestSegmentCreateWriteReopen(t *testing.T) {
	runBothModes(t, func(t *testing.T, noMmap bool) {
		dir := t.TempDir()
		want := make([]byte, 4096)
		copy(want, "hello shared memory")
		m := NewManager(3, Options{Dir: dir, Namespace: "test"})
		if err := os.WriteFile(m.segmentPath("s1"), want, 0o644); err != nil {
			t.Fatal(err)
		}
		// A "new process": fresh manager over the same directory.
		m2 := NewManager(3, Options{Dir: dir, Namespace: "test"})
		m2.noMmap = noMmap
		mp, err := m2.mapSegment("s1")
		if err != nil {
			t.Fatal(err)
		}
		defer mp.Release()
		if data := mp.Bytes(); !bytes.Equal(data, want) {
			t.Errorf("mapped %d bytes, or not the written ones", len(data))
		}
	})
}

// TestSegmentTruncate: cutting a mapped segment's file back keeps the
// mapping and the bytes below the cut, which a view's tail cut relies on
// (no munmap and mmap per block; MappedView.Evict).
func TestSegmentTruncate(t *testing.T) {
	runBothModes(t, func(t *testing.T, noMmap bool) {
		m := newTestManager(t, 1, noMmap)
		b := make([]byte, 8192)
		copy(b, "keep this part")
		if err := os.WriteFile(m.segmentPath("tr"), b, 0o644); err != nil {
			t.Fatal(err)
		}
		mp, err := m.mapSegment("tr")
		if err != nil {
			t.Fatal(err)
		}
		defer mp.Release()
		if err := os.Truncate(m.segmentPath("tr"), 4096); err != nil {
			t.Fatal(err)
		}
		if got := m.SegmentSize("tr"); got != 4096 {
			t.Errorf("size = %d", got)
		}
		if !bytes.HasPrefix(mp.Bytes(), []byte("keep this part")) {
			t.Error("truncate lost retained data")
		}
	})
}

func TestOpenMissingSegment(t *testing.T) {
	runBothModes(t, func(t *testing.T, noMmap bool) {
		m := newTestManager(t, 1, noMmap)
		if _, err := OpenTableSegmentView(m, SegmentInfo{Table: "nope", Segment: "nope"}); !errors.Is(err, ErrSegmentGone) {
			t.Errorf("err = %v", err)
		}
		if m.SegmentExists("nope") {
			t.Error("SegmentExists(nope) = true")
		}
		// An empty file is no segment either.
		if err := os.WriteFile(m.segmentPath("empty"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenTableSegmentView(m, SegmentInfo{Table: "empty", Segment: "empty"}); !errors.Is(err, ErrSegmentSize) {
			t.Errorf("empty segment: err = %v", err)
		}
	})
}

func TestMetadataRoundTrip(t *testing.T) {
	m := newTestManager(t, 7, false)
	md := &Metadata{
		Valid:   true,
		Version: LayoutVersion,
		Created: 1700000000,
		Segments: []SegmentInfo{
			{Table: "events", Segment: "tbl-events"},
			{Table: "errors weird/name", Segment: "tbl-errors"},
		},
	}
	if err := m.WriteMetadata(md); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadMetadata()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Valid || got.Version != LayoutVersion || got.Created != 1700000000 {
		t.Errorf("metadata = %+v", got)
	}
	if len(got.Segments) != 2 || got.Segments[1].Table != "errors weird/name" {
		t.Errorf("segments = %+v", got.Segments)
	}
}

func TestMetadataMissing(t *testing.T) {
	m := newTestManager(t, 7, false)
	if _, err := m.ReadMetadata(); !errors.Is(err, ErrNoMetadata) {
		t.Errorf("err = %v", err)
	}
	// Invalidate with no metadata is a no-op.
	if err := m.Invalidate(); err != nil {
		t.Errorf("Invalidate: %v", err)
	}
}

func TestMetadataCorruption(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(2, Options{Dir: dir, Namespace: "test"})
	md := &Metadata{Valid: true, Version: LayoutVersion, Segments: []SegmentInfo{{Table: "t", Segment: "s"}}}
	if err := m.WriteMetadata(md); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "test-leaf2-meta")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(raw); i++ {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x01
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := m.ReadMetadata(); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
	// Truncations must also be rejected.
	for cut := 0; cut < len(raw); cut++ {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := m.ReadMetadata(); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestInvalidateClearsValidBit(t *testing.T) {
	m := newTestManager(t, 4, false)
	if err := m.WriteMetadata(&Metadata{Valid: true, Version: LayoutVersion}); err != nil {
		t.Fatal(err)
	}
	if err := m.Invalidate(); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadMetadata()
	if err != nil {
		t.Fatal(err)
	}
	if got.Valid {
		t.Error("valid bit still set")
	}
}

func TestRemoveAll(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(5, Options{Dir: dir, Namespace: "test"})
	other := NewManager(6, Options{Dir: dir, Namespace: "test"})
	// An orphan segment not in metadata must also be cleaned up, and another
	// leaf's files must survive.
	for _, f := range []struct {
		m    *Manager
		name string
	}{{m, "tbl-a"}, {m, "tbl-orphan"}, {other, "tbl-b"}} {
		if err := os.WriteFile(f.m.segmentPath(f.name), make([]byte, 1024), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.WriteMetadata(&Metadata{Valid: true, Version: LayoutVersion,
		Segments: []SegmentInfo{{Table: "a", Segment: "tbl-a"}}}); err != nil {
		t.Fatal(err)
	}

	if err := m.RemoveAll(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "test-leaf5-") {
			t.Errorf("leftover file %s", e.Name())
		}
	}
	if !other.SegmentExists("tbl-b") {
		t.Error("RemoveAll deleted another leaf's segment")
	}
}

func TestSegmentNameForTable(t *testing.T) {
	cases := map[string]string{
		"events":     "tbl-events",
		"my_table-1": "tbl-my_table-1",
		"weird/name": "tbl-weird%002fname",
		"space name": "tbl-space%0020name",
		"uniçode":    "tbl-uni%00e7ode",
	}
	for in, want := range cases {
		if got := SegmentNameForTable(in); got != want {
			t.Errorf("SegmentNameForTable(%q) = %q, want %q", in, got, want)
		}
	}
	// Distinct names must not collide.
	if SegmentNameForTable("a/b") == SegmentNameForTable("a_b") {
		t.Error("name collision")
	}
}

func TestMetadataAtomicReplace(t *testing.T) {
	// Writing new metadata over old must never leave a torn file; emulate
	// by writing twice and checking the temp file is gone.
	dir := t.TempDir()
	m := NewManager(1, Options{Dir: dir, Namespace: "test"})
	if err := m.WriteMetadata(&Metadata{Version: LayoutVersion}); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteMetadata(&Metadata{Version: LayoutVersion, Valid: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "test-leaf1-meta.tmp")); !os.IsNotExist(err) {
		t.Error("temp metadata file left behind")
	}
	got, err := m.ReadMetadata()
	if err != nil || !got.Valid {
		t.Errorf("read: %+v, %v", got, err)
	}
}
