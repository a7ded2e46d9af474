package disk

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"scuba/internal/column"
	"scuba/internal/rowblock"
)

func buildBlock(t *testing.T, rows int, startTime int64) *rowblock.RowBlock {
	t.Helper()
	b := rowblock.NewBuilder(startTime)
	for i := 0; i < rows; i++ {
		err := b.AddRow(rowblock.Row{
			Time: startTime + int64(i),
			Cols: map[string]rowblock.Value{
				"service": rowblock.StringValue(fmt.Sprintf("svc-%d", i%5)),
				"latency": rowblock.Int64Value(int64(i * 3)),
				"cpu":     rowblock.Float64Value(float64(i) / 7),
				"tags":    rowblock.SetValue("prod", fmt.Sprintf("shard%d", i%2)),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	rb, err := b.Seal()
	if err != nil {
		t.Fatal(err)
	}
	return rb
}

// verifyBlockContents checks that a recovered block holds the same logical
// rows as the original, independent of column order and re-encoding.
func verifyBlockContents(t *testing.T, got, want *rowblock.RowBlock) {
	t.Helper()
	if got.Rows() != want.Rows() {
		t.Fatalf("rows = %d, want %d", got.Rows(), want.Rows())
	}
	gt, err := got.Times(nil)
	if err != nil {
		t.Fatal(err)
	}
	wt, _ := want.Times(nil)
	if !reflect.DeepEqual(gt, wt) {
		t.Fatal("times differ")
	}
	for _, f := range want.Schema() {
		if f.Name == rowblock.TimeColumn {
			continue
		}
		gotCol, err := got.DecodeColumn(f.Name)
		if err != nil {
			t.Fatalf("column %q: %v", f.Name, err)
		}
		wantCol, _ := want.DecodeColumn(f.Name)
		switch wc := wantCol.(type) {
		case *column.Int64Column:
			if !reflect.DeepEqual(gotCol.(*column.Int64Column).Values, wc.Values) {
				t.Errorf("column %q values differ", f.Name)
			}
		case *column.Float64Column:
			if !reflect.DeepEqual(gotCol.(*column.Float64Column).Values, wc.Values) {
				t.Errorf("column %q values differ", f.Name)
			}
		case *column.StringColumn:
			gc := gotCol.(*column.StringColumn)
			for i := 0; i < wc.Len(); i++ {
				if gc.Value(i) != wc.Value(i) {
					t.Errorf("column %q row %d: %q != %q", f.Name, i, gc.Value(i), wc.Value(i))
					break
				}
			}
		case *column.StringSetColumn:
			gotSets, gerr := gotCol.(*column.StringSetColumn).Values()
			wantSets, werr := wc.Values()
			if gerr != nil || werr != nil {
				t.Fatalf("column %q: %v, %v", f.Name, gerr, werr)
			}
			for i := 0; i < wc.Len(); i++ {
				a, b := gotSets[i], wantSets[i]
				sort.Strings(a)
				sort.Strings(b)
				if !reflect.DeepEqual(a, b) {
					t.Errorf("column %q row %d: %v != %v", f.Name, i, a, b)
					break
				}
			}
		}
	}
}

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// persist writes blocks as consecutive images starting at global row start.
func persist(t *testing.T, s *Store, table string, start int64, blocks ...*rowblock.RowBlock) {
	t.Helper()
	starts := make([]int64, len(blocks))
	for i, rb := range blocks {
		starts[i] = start
		start += int64(rb.Rows())
	}
	if n, err := s.Persist(table, blocks, starts); err != nil || n != len(blocks) {
		t.Fatalf("Persist = %d, %v", n, err)
	}
}

// loaded is what one Load call delivered.
type loaded struct {
	blocks []*rowblock.RowBlock
	starts []int64
	errs   []error
	w      int64
}

func load(t *testing.T, s *Store, table string) loaded {
	t.Helper()
	var l loaded
	w, err := s.Load(table, func(im Image, rb *rowblock.RowBlock, err error) error {
		if err != nil {
			l.errs = append(l.errs, err)
			return nil
		}
		l.blocks = append(l.blocks, rb)
		l.starts = append(l.starts, im.Start)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l.w = w
	return l
}

func imageFiles(t *testing.T, s *Store, table string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(s.Dir(), EncodeTableName(table), "block-*.rbk"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	return files
}

func TestPersistLoadRoundTrip(t *testing.T) {
	s := newStore(t)
	orig := []*rowblock.RowBlock{buildBlock(t, 200, 1000), buildBlock(t, 100, 2000)}
	persist(t, s, "events", 500, orig...)
	got := load(t, s, "events")
	if len(got.errs) != 0 || len(got.blocks) != 2 {
		t.Fatalf("loaded %d blocks, errs %v", len(got.blocks), got.errs)
	}
	if !reflect.DeepEqual(got.starts, []int64{500, 700}) || got.w != 800 {
		t.Fatalf("starts %v watermark %d, want [500 700] 800", got.starts, got.w)
	}
	for i := range orig {
		// The image is the block: a load gives back the bytes that were sealed.
		if !reflect.DeepEqual(got.blocks[i].AppendImage(nil), orig[i].AppendImage(nil)) {
			t.Errorf("block %d image differs after the round trip", i)
		}
	}
	// A later pass appends and moves the watermark; an older one re-running
	// cannot move it back.
	persist(t, s, "events", 800, buildBlock(t, 50, 3000))
	persist(t, s, "events", 500, orig[0])
	if got := load(t, s, "events"); got.w != 850 || len(got.blocks) != 3 {
		t.Fatalf("after second pass: watermark %d, %d blocks", got.w, len(got.blocks))
	}
	if tmps, _ := filepath.Glob(filepath.Join(s.Dir(), "events", ".tmp-*")); len(tmps) != 0 {
		t.Errorf("temp files left: %v", tmps)
	}
}

func TestLoadUnknownTable(t *testing.T) {
	if got := load(t, newStore(t), "nope"); len(got.blocks) != 0 || got.w != 0 {
		t.Errorf("unknown table loaded %d blocks, watermark %d", len(got.blocks), got.w)
	}
}

func TestTables(t *testing.T) {
	s := newStore(t)
	for _, name := range []string{"zeta", "alpha", "weird/name"} {
		persist(t, s, name, 0, buildBlock(t, 10, 0))
	}
	got, err := s.Tables()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"alpha", "weird/name", "zeta"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Tables = %v, want %v", got, want)
	}
}

// TestLoadLosesOnlyTheDamagedBlock: a flipped byte, a truncation and a
// missing file each cost one block; the others load at their own rows and
// the error names what was lost.
func TestLoadLosesOnlyTheDamagedBlock(t *testing.T) {
	damage := map[string]func(t *testing.T, path string){
		"flipped byte": func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0x01
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		// The header's MaxTime (bytes 28-35) is under no CRC: the file
		// name's copy is what catches a rewrite.
		"rewritten max time": func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint64(raw[28:], binary.LittleEndian.Uint64(raw[28:])+500)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"truncated": func(t *testing.T, path string) {
			if err := os.Truncate(path, 100); err != nil {
				t.Fatal(err)
			}
		},
		"missing": func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, hurt := range damage {
		t.Run(name, func(t *testing.T) {
			s := newStore(t)
			persist(t, s, "t", 0, buildBlock(t, 40, 0), buildBlock(t, 30, 100), buildBlock(t, 20, 200))
			files := imageFiles(t, s, "t")
			hurt(t, files[1])
			got := load(t, s, "t")
			if !reflect.DeepEqual(got.starts, []int64{0, 70}) || got.w != 90 {
				t.Fatalf("starts %v watermark %d, want [0 70] 90", got.starts, got.w)
			}
			if len(got.errs) != 1 {
				t.Fatalf("errors = %v, want exactly one", got.errs)
			}
			want := filepath.Base(files[1])
			if name == "missing" {
				want = "rows 40-70 are in no image"
			}
			if !strings.Contains(got.errs[0].Error(), want) {
				t.Errorf("error %q does not name %q", got.errs[0], want)
			}
		})
	}
}

// TestWatermarkAndImagesDisagree: images past the watermark are a crash
// between the image writes and the watermark, and count; a watermark past
// the last image is a lost trailing image, and is reported.
func TestWatermarkAndImagesDisagree(t *testing.T) {
	s := newStore(t)
	persist(t, s, "t", 0, buildBlock(t, 40, 0))
	persist(t, s, "t", 40, buildBlock(t, 30, 100))
	if err := os.Remove(filepath.Join(s.Dir(), "t", watermarkFile)); err != nil {
		t.Fatal(err)
	}
	if got := load(t, s, "t"); got.w != 70 || len(got.errs) != 0 {
		t.Fatalf("no watermark file: w=%d errs=%v, want 70 and none", got.w, got.errs)
	}
	persist(t, s, "t", 70, buildBlock(t, 20, 200))
	if err := os.Remove(imageFiles(t, s, "t")[2]); err != nil {
		t.Fatal(err)
	}
	got := load(t, s, "t")
	if got.w != 90 || len(got.errs) != 1 || !strings.Contains(got.errs[0].Error(), "watermark 90 is past the last image row 70") {
		t.Fatalf("lost trailing image: w=%d errs=%v", got.w, got.errs)
	}
}

// TestLongerImageSupersedesShorter: a tail checkpoint is a short image a
// longer one at the same start later supersedes. Persist drops the shorter
// once the watermark has moved past the longer; a shorter one a crash kept
// it from dropping is a stray, which a load skips and deletes, not a hole or
// an overlap.
func TestLongerImageSupersedesShorter(t *testing.T) {
	s := newStore(t)
	persist(t, s, "t", 0, buildBlock(t, 40, 0))
	short, long := buildBlock(t, 10, 100), buildBlock(t, 30, 100)
	persist(t, s, "t", 40, short)
	shortFile := imageFiles(t, s, "t")[1]
	kept, err := os.ReadFile(shortFile)
	if err != nil {
		t.Fatal(err)
	}
	persist(t, s, "t", 40, long)
	if files := imageFiles(t, s, "t"); len(files) != 2 || files[1] == shortFile {
		t.Fatalf("after the longer image: %v, want the 40-row and the 30-row image", files)
	}
	// The crash between the longer image's watermark and the drop.
	if err := os.WriteFile(shortFile, kept, 0o644); err != nil {
		t.Fatal(err)
	}
	got := load(t, s, "t")
	if len(got.errs) != 0 || !reflect.DeepEqual(got.starts, []int64{0, 40}) || got.w != 70 {
		t.Fatalf("load: starts %v watermark %d errs %v, want [0 40] 70 and none", got.starts, got.w, got.errs)
	}
	if got.blocks[1].Rows() != 30 {
		t.Fatalf("loaded the %d-row image at row 40, want the 30-row one", got.blocks[1].Rows())
	}
	if _, err := os.Stat(shortFile); !os.IsNotExist(err) {
		t.Errorf("the superseded image is still there: %v", err)
	}
}

// TestDropBelow is the one retention rule: images wholly below the first
// retained row go, and the watermark keeps the row base when none are left.
func TestDropBelow(t *testing.T) {
	s := newStore(t)
	persist(t, s, "t", 0, buildBlock(t, 10, 0), buildBlock(t, 10, 100), buildBlock(t, 10, 200))
	if n, err := s.DropBelow("t", 15); err != nil || n != 1 {
		t.Fatalf("DropBelow(15) = %d, %v, want 1", n, err)
	}
	if got := load(t, s, "t"); !reflect.DeepEqual(got.starts, []int64{10, 20}) || len(got.errs) != 0 {
		t.Fatalf("after drop: starts %v errs %v", got.starts, got.errs)
	}
	if n, err := s.DropBelow("t", 30); err != nil || n != 2 {
		t.Fatalf("DropBelow(30) = %d, %v, want 2", n, err)
	}
	if got := load(t, s, "t"); len(got.blocks) != 0 || got.w != 30 || len(got.errs) != 0 {
		t.Fatalf("all expired: %d blocks, watermark %d, errs %v", len(got.blocks), got.w, got.errs)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite the store layout fixture under testdata/store-v1")

// goldenBlocks is the canonical content of testdata/store-v1: two tables,
// one with an expired prefix (its first image starts past row 0).
func goldenBlocks(t *testing.T) map[string][]*rowblock.RowBlock {
	return map[string][]*rowblock.RowBlock{
		"events":     {buildBlock(t, 40, 1000), buildBlock(t, 25, 2000)},
		"weird/name": {buildBlock(t, 10, 50)},
	}
}

var goldenStarts = map[string]int64{"events": 0, "weird/name": 300}

// TestGoldenStoreLayout pins the store's on-disk layout — file names, image
// bytes, watermark bytes — against testdata/store-v1, which old binaries
// wrote and new ones must keep loading. Regenerate only with -update, when
// the layout is meant to change.
func TestGoldenStoreLayout(t *testing.T) {
	golden := filepath.Join("testdata", "store-v1")
	if *updateGolden {
		if err := os.RemoveAll(golden); err != nil {
			t.Fatal(err)
		}
	}
	fresh := t.TempDir()
	for _, root := range []string{fresh, golden} {
		if root == golden && !*updateGolden {
			continue
		}
		s, err := NewStore(root, 0)
		if err != nil {
			t.Fatal(err)
		}
		for name, blocks := range goldenBlocks(t) {
			persist(t, s, name, goldenStarts[name], blocks...)
		}
	}
	want, got := dirContents(t, golden), dirContents(t, fresh)
	if !reflect.DeepEqual(got, want) {
		for name := range want {
			if !reflect.DeepEqual(got[name], want[name]) {
				t.Errorf("%s drifted from the fixture (%d bytes, fixture %d)", name, len(got[name]), len(want[name]))
			}
		}
		t.Fatalf("store layout drifted from %s: wrote %d files, fixture has %d", golden, len(got), len(want))
	}
	s, err := NewStore(golden, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, blocks := range goldenBlocks(t) {
		l := load(t, s, name)
		end := goldenStarts[name]
		for _, rb := range blocks {
			end += int64(rb.Rows())
		}
		if len(l.errs) != 0 || len(l.blocks) != len(blocks) || l.starts[0] != goldenStarts[name] || l.w != end {
			t.Fatalf("%s: loaded %d blocks at %v, watermark %d, errs %v", name, len(l.blocks), l.starts, l.w, l.errs)
		}
		for i := range blocks {
			verifyBlockContents(t, l.blocks[i], blocks[i])
		}
	}
}

// dirContents maps every file under root (by relative path) to its bytes.
func dirContents(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		out[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestTableNameEncoding(t *testing.T) {
	cases := []string{"simple", "with space", "with/slash", "uniçode", "dots.and.things"}
	for _, name := range cases {
		if got := DecodeTableName(EncodeTableName(name)); got != name {
			t.Errorf("round trip %q -> %q", name, got)
		}
	}
	if EncodeTableName("a/b") == EncodeTableName("a_b") {
		t.Error("encoding collision")
	}
}
