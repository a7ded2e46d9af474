package leaf

import (
	"fmt"
	"reflect"
	"testing"

	"scuba/internal/fault"
	"scuba/internal/query"
	"scuba/internal/rowblock"
)

// TestFaultMatrix is the keystone regression suite for DESIGN.md §8: for
// every fault site × action combination on the restart path, the leaf must
// converge to serving, query results must equal an unfaulted run, and the
// recovery path must be exactly what the failure model predicts. Crash
// actions need a real process and live in the e2e subprocess tests.
//
// GOMAXPROCS is pinned to 1 (one pool worker) so hit ordering is deterministic: tables copy
// largest first (t2, t1, t0), and Shutdown's metadata writes are
// initial(1) + one registration per table (2-4) + commit(5). Each table
// holds two sealed blocks of equal rows, so its store holds two images.
func TestFaultMatrix(t *testing.T) {
	const tables = 3
	counts := [tables]int{120, 140, 160}

	cases := []struct {
		name string
		// spec is armed before the faulted stage and disarmed after it.
		spec  string
		stage string // "shutdown" or "restore"
		// wantShutdownErr: the faulted Shutdown must fail (the next start
		// then disk-recovers with full data).
		wantShutdownErr bool
		wantPath        RecoveryPath
		wantQuarantined int
		// wantReplaced counts blocks replaced from the store's images.
		wantReplaced int
		wantFellBack bool
		// lostTables expect zero rows (quarantine reload also failed).
		lostTables map[string]bool
		// halfLost tables lost their first image on the reload: its rows
		// are counted dropped, and the second block's half is served.
		halfLost map[string]bool
	}{
		{
			name: "copy_out error fails shutdown, disk recovers all",
			spec: "shm.copy_out=error", stage: "shutdown",
			wantShutdownErr: true, wantPath: RecoveryDisk,
		},
		{
			name: "initial metadata write error fails shutdown, disk recovers all",
			spec: "shm.commit=error;count=1", stage: "shutdown",
			wantShutdownErr: true, wantPath: RecoveryDisk,
		},
		{
			name: "valid-bit commit error fails shutdown, disk recovers all",
			spec: "shm.commit=error;after=4", stage: "shutdown",
			wantShutdownErr: true, wantPath: RecoveryDisk,
		},
		{
			name: "copy_out delay only slows shutdown, memory restore",
			spec: "shm.copy_out=delay:2ms;count=3", stage: "shutdown",
			wantPath: RecoveryMemory,
		},
		{
			name: "copy_out corruption detected at restore, one table quarantined",
			spec: "shm.copy_out=corrupt;count=1", stage: "shutdown",
			wantPath: RecoveryMixed, wantQuarantined: 1,
		},
		{
			name: "metadata read error falls back whole restore to disk",
			spec: "shm.map=error;count=1", stage: "restore",
			wantPath: RecoveryDisk, wantFellBack: true,
		},
		{
			name: "one segment map error quarantines only that table",
			spec: "shm.map=error;after=1;count=1", stage: "restore",
			wantPath: RecoveryMixed, wantQuarantined: 1,
		},
		{
			name: "copy_in error quarantines only that table",
			spec: "shm.copy_in=error;count=1", stage: "restore",
			wantPath: RecoveryMixed, wantQuarantined: 1,
		},
		{
			name: "copy_in corruption caught by block checksums, block replaced",
			spec: "shm.copy_in=corrupt;count=1", stage: "restore",
			wantPath: RecoveryMemory, wantReplaced: 1,
		},
		{
			name: "copy_in delay only slows restore, memory restore",
			spec: "shm.copy_in=delay:2ms;count=3", stage: "restore",
			wantPath: RecoveryMemory,
		},
		{
			name: "quarantine reload hits disk error: table lost, leaf still serves",
			spec: "shm.copy_in=error;count=1, disk.read=error;count=1", stage: "restore",
			wantPath: RecoveryMixed, wantQuarantined: 1,
			lostTables: map[string]bool{"t2": true}, // the pool takes the largest table first
		},
		{
			name: "quarantine reload hits an image error: that block dropped, the rest served",
			spec: "shm.copy_in=error;count=1, disk.image=error;count=1", stage: "restore",
			wantPath: RecoveryMixed, wantQuarantined: 1,
			halfLost: map[string]bool{"t2": true},
		},
		{
			name: "every table quarantined: per-table disk path, no fallback",
			spec: "shm.copy_in=error;count=3", stage: "restore",
			wantPath: RecoveryDisk, wantQuarantined: 3,
		},
	}

	// Unfaulted baseline: per-table count and latency sum after a clean
	// shutdown/restore cycle. Every faulted run must reproduce these
	// exactly (minus tables deliberately lost).
	setProcs(t, 1)
	fill := func(t *testing.T, l *Leaf) {
		for half := 0; half < 2; half++ {
			for i := 0; i < tables; i++ {
				ingest(t, l, fmt.Sprintf("t%d", i), counts[i]/2, int64(1000*i+half*counts[i]/2))
			}
			if err := l.SealAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	baseCount := make(map[string]float64)
	baseSum := make(map[string]float64)
	{
		e := newEnv(t)
		cfg := e.config(0)
		l := startLeaf(t, cfg)
		fill(t, l)
		if _, err := l.Shutdown(); err != nil {
			t.Fatal(err)
		}
		nu := startLeaf(t, cfg)
		if nu.Recovery().Path != RecoveryMemory {
			t.Fatalf("baseline recovery = %+v", nu.Recovery())
		}
		for i := 0; i < tables; i++ {
			name := fmt.Sprintf("t%d", i)
			baseCount[name], baseSum[name] = countAndSum(t, nu, name)
		}
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(fault.Reset)
			fault.Reset()
			e := newEnv(t)
			cfg := e.config(0)
			l := startLeaf(t, cfg)
			fill(t, l)

			if tc.stage == "shutdown" {
				if err := fault.ArmSpec(tc.spec); err != nil {
					t.Fatal(err)
				}
			}
			_, err := l.Shutdown()
			if tc.stage == "shutdown" {
				fault.Reset()
			}
			if tc.wantShutdownErr != (err != nil) {
				t.Fatalf("shutdown err = %v, want failure=%v", err, tc.wantShutdownErr)
			}

			if tc.stage == "restore" {
				if err := fault.ArmSpec(tc.spec); err != nil {
					t.Fatal(err)
				}
			}
			nu, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The acceptance bar: Start never fails outright — every
			// injected fault converges to a serving leaf.
			if err := nu.Start(); err != nil {
				t.Fatalf("Start under fault %q = %v", tc.spec, err)
			}
			fault.Reset()

			if st := nu.State(); st != StateAlive {
				t.Fatalf("leaf state = %v, want alive", st)
			}
			rec := nu.Recovery()
			if rec.Path != tc.wantPath {
				t.Fatalf("recovery path = %s, want %s (%+v)", rec.Path, tc.wantPath, rec)
			}
			if rec.Quarantined != tc.wantQuarantined {
				t.Fatalf("quarantined = %d, want %d (%+v)", rec.Quarantined, tc.wantQuarantined, rec.PerTablePath)
			}
			replaced := 0
			dropped := make(map[string]int64)
			for _, tr := range rec.PerTablePath {
				replaced += tr.BlocksReplaced
				dropped[tr.Table] = tr.RowsDropped
			}
			if replaced != tc.wantReplaced {
				t.Fatalf("blocks replaced = %d, want %d (%+v)", replaced, tc.wantReplaced, rec.PerTablePath)
			}
			if rec.FellBack != tc.wantFellBack {
				t.Fatalf("fellBack = %v, want %v", rec.FellBack, tc.wantFellBack)
			}

			for i := 0; i < tables; i++ {
				name := fmt.Sprintf("t%d", i)
				gotCount, gotSum := countAndSum(t, nu, name)
				wantCount, wantSum := baseCount[name], baseSum[name]
				if tc.lostTables[name] {
					wantCount, wantSum = 0, 0
				}
				if tc.halfLost[name] { // the two halves hold the same latencies
					wantCount, wantSum = wantCount/2, wantSum/2
				}
				if want := int64(baseCount[name] - wantCount); !tc.lostTables[name] && dropped[name] != want {
					t.Errorf("%s: %d rows dropped, want %d", name, dropped[name], want)
				}
				if gotCount != wantCount || gotSum != wantSum {
					t.Errorf("%s: count/sum = %v/%v, want %v/%v",
						name, gotCount, gotSum, wantCount, wantSum)
				}
			}
		})
	}
}

func countAndSum(t *testing.T, l *Leaf, tableName string) (count, sum float64) {
	t.Helper()
	q := &query.Query{Table: tableName, From: 0, To: 1 << 40,
		Aggregations: []query.Aggregation{
			{Op: query.AggCount},
			{Op: query.AggSum, Column: "latency"},
		}}
	res, err := l.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows(q)
	if len(rows) == 0 {
		return 0, 0
	}
	return rows[0].Values[0], rows[0].Values[1]
}

// TestStaleImagesOutliveTheRestore: a table whose store holds an image that
// is none of its segment's blocks' (here a copy of the first, past the
// watermark) loses that image at the restore, before any block moves: a
// failed drain quarantines the table to its blocks' images, a damaged clone
// — the drain's or the promoter's — is replaced from the block's own image,
// and the table numbers new rows from the watermark the copy raised.
func TestStaleImagesOutliveTheRestore(t *testing.T) {
	for _, tc := range []struct {
		name, spec           string
		instant, quarantined bool
	}{
		{"drain fails", "shm.copy_in=error;count=1", false, true},
		{"drain clone damaged", "shm.copy_in=corrupt;count=1", false, false},
		{"promoter clone damaged", "shm.copy_in=corrupt;count=1", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(fault.Reset)
			e := newEnv(t)
			old := startLeaf(t, e.config(0))
			for i := 0; i < 3; i++ {
				ingest(t, old, "events", 400, int64(1000+400*i))
				if err := old.SealAll(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := old.Shutdown(); err != nil {
				t.Fatal(err)
			}
			images, w, err := old.store.Images("events")
			if err != nil || len(images) != 3 {
				t.Fatalf("images after the shutdown: %v, %v", images, err)
			}
			first, err := old.store.LoadImage("events", images[0])
			if err == nil {
				_, err = old.store.Persist("events", []*rowblock.RowBlock{first}, []int64{w})
			}
			if err != nil {
				t.Fatal(err)
			}

			if err := fault.ArmSpec(tc.spec); err != nil {
				t.Fatal(err)
			}
			cfg := e.config(0)
			cfg.InstantOn = tc.instant
			nu := startLeaf(t, cfg)
			defer nu.stopPromoter()
			if tc.instant {
				<-nu.promo.done
			}
			fault.Reset()
			rec := nu.Recovery().PerTablePath[0]
			if tc.quarantined {
				if rec.Path != RecoveryDisk {
					t.Errorf("recovery = %+v, want the table quarantined to the store", rec)
				}
			} else if rec.BlocksReplaced != 1 || rec.BlocksDropped != 0 {
				t.Errorf("recovery = %+v, want one block replaced and none dropped", rec)
			}
			if got := countRows(t, nu, "events"); got != 1200 {
				t.Errorf("rows = %v, want the blocks' 1200", got)
			}
			if next := nu.Table("events").NextRow(); next != w+400 {
				t.Errorf("NextRow = %d, want the watermark, %d", next, w+400)
			}
			if _, err := nu.SyncToDisk(); err != nil {
				t.Fatal(err)
			}
			if own, _, err := nu.store.Images("events"); err != nil || !reflect.DeepEqual(own, images) {
				t.Errorf("store images after SyncToDisk: %v, %v; want the blocks' %v", own, err, images)
			}
		})
	}
}
