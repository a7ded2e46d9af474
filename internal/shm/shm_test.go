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

func TestSegmentCreateWriteReopen(t *testing.T) {
	runBothModes(t, func(t *testing.T, noMmap bool) {
		dir := t.TempDir()
		m := NewManager(3, Options{Dir: dir, Namespace: "test"})
		m.noMmap = noMmap
		seg, err := m.CreateSegment("s1", 4096)
		if err != nil {
			t.Fatal(err)
		}
		copy(seg.Bytes(), "hello shared memory")
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}
		// A "new process": fresh manager over the same directory.
		m2 := NewManager(3, Options{Dir: dir, Namespace: "test"})
		m2.noMmap = noMmap
		seg2, err := m2.OpenSegment("s1")
		if err != nil {
			t.Fatal(err)
		}
		defer seg2.Close()
		if !bytes.HasPrefix(seg2.Bytes(), []byte("hello shared memory")) {
			t.Error("data did not survive close/reopen")
		}
		if seg2.Size() != 4096 {
			t.Errorf("size = %d", seg2.Size())
		}
	})
}

func TestSegmentTruncate(t *testing.T) {
	runBothModes(t, func(t *testing.T, noMmap bool) {
		m := newTestManager(t, 1, noMmap)
		seg, err := m.CreateSegment("tr", 8192)
		if err != nil {
			t.Fatal(err)
		}
		defer seg.Close()
		copy(seg.Bytes(), "keep this part")
		if err := seg.Truncate(4096); err != nil {
			t.Fatal(err)
		}
		if seg.Size() != 4096 {
			t.Errorf("size = %d", seg.Size())
		}
		if !bytes.HasPrefix(seg.Bytes(), []byte("keep this part")) {
			t.Error("truncate lost retained data")
		}
		// Truncate to zero keeps a 1-byte mapping alive.
		if err := seg.Truncate(0); err != nil {
			t.Fatal(err)
		}
		if seg.Size() != 1 {
			t.Errorf("size after truncate-to-zero = %d", seg.Size())
		}
	})
}

func TestSegmentClosedOperations(t *testing.T) {
	m := newTestManager(t, 1, false)
	seg, err := m.CreateSegment("c", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := seg.Truncate(512); !errors.Is(err, ErrClosed) {
		t.Errorf("truncate after close: %v", err)
	}
}

func TestCreateSegmentBadSize(t *testing.T) {
	m := newTestManager(t, 1, false)
	if _, err := m.CreateSegment("bad", 0); !errors.Is(err, ErrSegmentSize) {
		t.Errorf("err = %v", err)
	}
	if _, err := m.CreateSegment("bad", -5); !errors.Is(err, ErrSegmentSize) {
		t.Errorf("err = %v", err)
	}
}

func TestOpenMissingSegment(t *testing.T) {
	m := newTestManager(t, 1, false)
	if _, err := m.OpenSegment("nope"); !errors.Is(err, ErrSegmentGone) {
		t.Errorf("err = %v", err)
	}
	if m.SegmentExists("nope") {
		t.Error("SegmentExists(nope) = true")
	}
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
	seg, err := m.CreateSegment("tbl-a", 1024)
	if err != nil {
		t.Fatal(err)
	}
	seg.Close()
	if err := m.WriteMetadata(&Metadata{Valid: true, Version: LayoutVersion,
		Segments: []SegmentInfo{{Table: "a", Segment: "tbl-a"}}}); err != nil {
		t.Fatal(err)
	}
	// An orphan segment not in metadata must also be cleaned up.
	orphan, err := m.CreateSegment("tbl-orphan", 1024)
	if err != nil {
		t.Fatal(err)
	}
	orphan.Close()
	// Another leaf's files must survive.
	other := NewManager(6, Options{Dir: dir, Namespace: "test"})
	oseg, err := other.CreateSegment("tbl-b", 1024)
	if err != nil {
		t.Fatal(err)
	}
	oseg.Close()

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
