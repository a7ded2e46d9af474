package leaf

import (
	"encoding/binary"
	"math/rand"
	"os"
	"sync"
	"testing"

	"scuba/internal/obs"
	"scuba/internal/query"
	"scuba/internal/rowblock"
	"scuba/internal/table"
)

// segmentRegions parses a finished table segment far enough to name one byte
// in each region a checksum covers: a zone map in the first image's prefix,
// a column blob, the last byte of the first image (the gap-free boundary with
// the second) and the block index.
func segmentRegions(t *testing.T, raw []byte) map[string]int {
	t.Helper()
	footer := int(binary.LittleEndian.Uint64(raw[16:]))
	if n := binary.LittleEndian.Uint32(raw[24:]); n < 2 {
		t.Fatalf("segment holds %d blocks, want a boundary between two", n)
	}
	first := int(binary.LittleEndian.Uint64(raw[footer:]))
	second := int(binary.LittleEndian.Uint64(raw[footer+20:])) // entries are 20 bytes: offset, start row, prefix CRC
	rb, size, err := rowblock.DecodeImage(raw[first:second])
	if err != nil || first+size != second {
		t.Fatalf("first image: %d bytes of %d, %v", size, second-first, err)
	}
	prefix := size - int(rb.Header().Size)
	return map[string]int{
		"image prefix (a zone map)": first + prefix - 8*rb.NumColumns() - 1, // just before the column offset table
		"column blob":               first + prefix + rb.Column(0).Size() + rb.Column(1).Size()/2,
		"image boundary":            second - 1,
		"footer":                    footer + 20, // the second block's offset
	}
}

// TestDrainVerifiesBeforeInstall flips one byte in each region of a finished
// segment. Damage to metadata — an image prefix, the block index — fails the
// open: exactly that table is quarantined to the store with none of its shm
// blocks installed, and the other tables come from memory. Damage to a
// column fails that block's first read — the eager drain's clone, or at
// instant-on a scan's or the promoter's — and exactly that block is replaced
// by the store's image of its rows. Either way the leaf answers as the
// reference does.
func TestDrainVerifiesBeforeInstall(t *testing.T) {
	rows := driftRows(rand.New(rand.NewSource(3)), 9000, 0)
	want := fingerprint(t, func(q *query.Query) (*query.Result, error) { return query.Reference(rows, q) })
	for _, instantOn := range []bool{false, true} {
		for _, region := range []string{"image prefix (a zone map)", "column blob", "image boundary", "footer"} {
			name := "eager/" + region
			if instantOn {
				name = "instant-on/" + region
			}
			atOpen := region == "image prefix (a zone map)" || region == "footer"
			t.Run(name, func(t *testing.T) {
				e := newEnv(t)
				old := startLeaf(t, e.config(0))
				for at := 0; at < len(rows); at += 3000 {
					if err := old.AddRows("events", rows[at:at+3000]); err != nil {
						t.Fatal(err)
					}
					if err := old.SealAll(); err != nil {
						t.Fatal(err)
					}
				}
				ingest(t, old, "errors", 300, 1000)
				ingest(t, old, "ads", 200, 1000)
				if _, err := old.Shutdown(); err != nil {
					t.Fatal(err)
				}
				segFile := tableSegmentFile(t, e, "events")
				raw, err := os.ReadFile(segFile)
				if err != nil {
					t.Fatal(err)
				}
				raw[segmentRegions(t, raw)[region]] ^= 0x04
				if err := os.WriteFile(segFile, raw, 0o644); err != nil {
					t.Fatal(err)
				}

				cfg := e.config(0)
				cfg.InstantOn = instantOn
				nu := startLeaf(t, cfg)
				defer nu.stopPromoter()
				fromShm := RecoveryMemory
				if instantOn {
					fromShm = RecoveryShmView
				}
				if got := driftFingerprint(t, nu); got != want {
					t.Errorf("answers differ from the reference:\ngot  %s\nwant %s", got, want)
				}
				if got := countRows(t, nu, "errors") + countRows(t, nu, "ads"); got != 500 {
					t.Errorf("intact tables count %v rows, want 500", got)
				}
				if instantOn {
					// The promoter's clone may be the damaged column's first
					// reader: its replacement counts once the drain is done.
					waitPromoted(t, nu)
				}
				rec := nu.Recovery()
				if !atOpen {
					if rec.Path != fromShm || rec.Quarantined != 0 || rec.FellBack {
						t.Fatalf("recovery = %+v, want %v with none quarantined", rec, fromShm)
					}
					for _, tr := range rec.PerTablePath {
						replaced := 0
						if tr.Table == "events" {
							replaced = 1
						}
						if tr.Path != fromShm || tr.BlocksReplaced != replaced || tr.BlocksDropped != 0 || tr.RowsDropped != 0 {
							t.Errorf("table: %+v, want %v with %d block replaced", tr, fromShm, replaced)
						}
					}
					if got := nu.tableRecoverySource("events"); got != string(fromShm) {
						t.Errorf("execution reports the table's source as %q, want %q", got, fromShm)
					}
					return
				}
				if rec.Path != RecoveryMixed || rec.Quarantined != 1 || rec.FellBack {
					t.Fatalf("recovery = %+v, want mixed with 1 quarantined table", rec)
				}
				for _, tr := range rec.PerTablePath {
					switch {
					case tr.Table == "events" && (tr.Path != RecoveryDisk || tr.Reason == ""):
						t.Errorf("damaged table: %+v, want disk and why", tr)
					case tr.Table != "events" && tr.Path != fromShm:
						t.Errorf("intact table: %+v, want %v", tr, fromShm)
					}
				}
				// The table's open failed and none of its blocks went from shm
				// into the table: nothing was adopted.
				failed := false
				for _, sp := range nu.RestartTrace().Half(obs.HalfStart) {
					if sp.Table != "events" {
						continue
					}
					switch sp.Phase {
					case obs.PhaseTableView:
						failed = failed || sp.Err != ""
					case obs.PhaseTableCopyIn, obs.PhaseTableAdopt:
						t.Errorf("blocks of the damaged segment were taken: %+v", sp)
					}
				}
				if !failed {
					t.Error("the damaged table's open did not fail")
				}
			})
		}
	}
}

// TestEagerDrainBesideExpiry runs an eager start — two workers draining
// segments, installing tables — while retention expires blocks of the tables
// that are already in and queries read them; run under -race it is the check
// that the drain shares nothing with either. What retention leaves is what
// the reference counts.
func TestEagerDrainBesideExpiry(t *testing.T) {
	const now = 1700000000 + 1000
	e := newEnv(t)
	cfg := e.config(0)
	setProcs(t, 2)
	cfg.Clock = func() int64 { return now }
	cfg.Table = table.Options{MaxAgeSeconds: 940} // cutoff inside the second block
	old := startLeaf(t, cfg)
	rows := driftRows(rand.New(rand.NewSource(5)), 9000, 0) // times 1700000000 .. +180
	tables := []string{"events", "t1", "t2", "t3"}
	for _, name := range tables {
		for at := 0; at < len(rows); at += 3000 {
			if err := old.AddRows(name, rows[at:at+3000]); err != nil {
				t.Fatal(err)
			}
			if err := old.SealAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := old.Shutdown(); err != nil {
		t.Fatal(err)
	}

	nu, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := nu.ExpireAll(now); err != nil {
				t.Errorf("ExpireAll beside the drain: %v", err)
				return
			}
			for _, name := range tables {
				nu.Query(&query.Query{Table: name, From: 0, To: 1 << 40, //nolint:errcheck // not ALIVE yet is fine
					Aggregations: []query.Aggregation{{Op: query.AggCount}, {Op: query.AggSum, Column: "seq"}}})
			}
		}
	}()
	err = nu.Start()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rec := nu.Recovery(); rec.Path != RecoveryMemory || rec.Quarantined != 0 {
		t.Fatalf("recovery = %+v, want memory", rec)
	}
	if _, err := nu.ExpireAll(now); err != nil {
		t.Fatal(err)
	}
	// Retention drops whole blocks whose newest row is past the age limit: the
	// first 3000-row block (times up to +59) goes, the other two stay.
	var kept []rowblock.Row
	for at := 0; at < len(rows); at += 3000 {
		if block := rows[at : at+3000]; block[len(block)-1].Time >= now-940 {
			kept = append(kept, block...)
		}
	}
	if len(kept) != 6000 {
		t.Fatalf("the history keeps %d rows, want 6000", len(kept))
	}
	q := &query.Query{Table: "events", From: 0, To: 1 << 40,
		Aggregations: []query.Aggregation{{Op: query.AggCount}, {Op: query.AggSum, Column: "seq"}}}
	want, err := query.Reference(kept, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range tables {
		q.Table = name
		got, err := nu.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := got.Rows(q), want.Rows(q); len(g) != 1 || g[0].Values[0] != w[0].Values[0] || g[0].Values[1] != w[0].Values[1] {
			t.Errorf("%s after drain and expiry: %+v, want %+v", name, g, w)
		}
	}
	if files := segmentFiles(t, e.shmDir); len(files) != 0 {
		t.Errorf("segments left after the drain: %v", files)
	}
}

// TestEagerStartServesNothingFromShm: an eager start runs the move loop on
// every table before ALIVE, so when Start returns no table holds a block of
// a view, nothing counts as served from shm, no segment file is left, and
// every table answers as before the restart.
func TestEagerStartServesNothingFromShm(t *testing.T) {
	e := newEnv(t)
	setProcs(t, 2)
	old := startLeaf(t, e.config(0))
	tables := []string{"ads", "errors", "events"}
	for i := 0; i < 3; i++ {
		for j, name := range tables {
			ingest(t, old, name, 100*(j+1), int64(1000+1000*j+300*i))
		}
		if err := old.SealAll(); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]string{}
	for _, name := range tables {
		want[name] = queryFingerprint(t, old, name)
	}
	if _, err := old.Shutdown(); err != nil {
		t.Fatal(err)
	}

	nu := startLeaf(t, e.config(0))
	if rec := nu.Recovery(); rec.Path != RecoveryMemory || rec.ServedFromShm != 0 || rec.Blocks != 9 {
		t.Fatalf("recovery = %+v, want 9 blocks from memory, none served from shm", rec)
	}
	for _, name := range tables {
		if n := nu.Table(name).ForeignBlocks(); n != 0 {
			t.Errorf("%s holds %d blocks of a view at ALIVE", name, n)
		}
		if got := queryFingerprint(t, nu, name); got != want[name] {
			t.Errorf("%s after the restart:\ngot  %s\nwant %s", name, got, want[name])
		}
	}
	if files := segmentFiles(t, e.shmDir); len(files) != 0 {
		t.Errorf("segment files left at ALIVE: %v", files)
	}
}
