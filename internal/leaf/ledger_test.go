package leaf

// The restart ledger as the leaf keeps it: the start half's top-level spans
// account for the availability gap whatever the recovery source, what
// RecoveryInfo and ShutdownInfo say about time and volume is read off spans
// and nothing else, and spans can end on the pool's workers while
// /debug/recovery renders them.

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"scuba/internal/metrics"
	"scuba/internal/obs"
	"scuba/internal/query"
)

// TestRestartTraceAccountsForTheGap: for each recovery source the start
// half's top-level spans tile [Start begin, first answer] — in order, no
// overlap, summing to within 10 % of the gap this test measures with its own
// clock (or a fixed 250 µs for the sub-millisecond images-only gap) — every
// table span names its table, worker and source and lies inside
// its phase, the whole-phase timers read the phase's wall time, and
// RecoveryInfo's totals are the sums over the spans.
func TestRestartTraceAccountsForTheGap(t *testing.T) {
	count := &query.Query{Table: "events", From: 0, To: 1 << 40,
		Aggregations: []query.Aggregation{{Op: query.AggCount}}}
	for _, src := range recoverySources {
		t.Run(src.name, func(t *testing.T) {
			e := newWALEnv(t)
			cfg := e.env.config(0)
			if src.wal {
				cfg = e.config(0)
			}
			cfg.Clock, cfg.Table = sourceClock, sourceRetention
			old := sourceHistory(t, cfg)
			if src.handOver != nil {
				src.handOver(t, old, &cfg)
			}
			reg := metrics.NewRegistry()
			cfg.Obs = obs.New(reg, nil)
			l, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer l.stopPromoter()

			begin := time.Now()
			if err := l.Start(); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Query(count); err != nil {
				t.Fatal(err)
			}
			gap := time.Since(begin)

			rec := l.Recovery()
			if rec.Path != src.wantPath {
				t.Fatalf("recovery path = %v, want %v", rec.Path, src.wantPath)
			}
			up := l.RestartTrace().Half(obs.HalfStart)
			top := up.TopLevel()
			phase := map[RecoveryPath]string{RecoveryMemory: obs.PhaseCopyIn, RecoveryShmView: obs.PhaseView,
				RecoveryWAL: obs.PhaseDiskRecovery, RecoveryDisk: obs.PhaseDiskRecovery}[src.wantPath]
			var got []string
			var sum time.Duration
			for i, sp := range top {
				got = append(got, sp.Phase)
				sum += sp.Duration
				if i > 0 && sp.Start.Before(top[i-1].End()) {
					t.Errorf("%s begins %v before %s ends", sp.Phase, top[i-1].End().Sub(sp.Start), top[i-1].Phase)
				}
				if sp.Err != "" || sp.Open || sp.Worker != -1 {
					t.Errorf("top-level span %+v", sp)
				}
				if st := reg.Timer(sp.Phase).Stats(); st.Count != 1 || st.Total != sp.Duration {
					t.Errorf("timer %s = %d observations, %v total; its span took %v", sp.Phase, st.Count, st.Total, sp.Duration)
				}
			}
			if want := []string{obs.PhaseMap, phase, obs.PhaseAlive, obs.PhaseFirstAnswer}; !reflect.DeepEqual(got, want) {
				t.Fatalf("top-level spans %v, want %v", got, want)
			}
			// What no span covers is the fixed cost of the Query call around
			// the first answer, not a share of the gap: 26 µs at p50 and
			// 125 µs at most over 100 runs of the images-only source, whose
			// gap is 0.27-0.47 ms, so 10 % of it is inside that noise. That
			// source may leave untracedFloor uncovered; the others, with gaps
			// of milliseconds, keep 10 %.
			const untracedFloor = 250 * time.Microsecond
			slack := gap / 10
			if src.wantPath == RecoveryDisk {
				slack = max(slack, untracedFloor)
			}
			if top[0].Start.Before(begin) || sum > gap || gap-sum > slack {
				t.Errorf("top-level spans sum to %v of a %v gap, want within %v", sum, gap, slack)
			}
			t.Logf("gap %v, top-level spans %v (%.1f %%)", gap, sum, 100*float64(sum)/float64(gap))

			pool := top[1]
			var blocks int
			var bytes int64
			var steps time.Duration
			for _, sp := range up {
				if sp.Table == "" {
					continue
				}
				if sp.Table != "events" || sp.Worker < 0 || sp.Worker >= rec.Workers || sp.Recovery == "" {
					t.Errorf("span does not name its table, worker and source: %+v", sp)
				}
				if sp.Start.Before(pool.Start) || sp.End().After(pool.End()) {
					t.Errorf("%s of %q lies outside %s", sp.Phase, sp.Table, pool.Phase)
				}
				steps += sp.Duration
				if st := reg.Timer(sp.Phase).Stats(); st.Count != 1 || st.Total != sp.Duration {
					t.Errorf("timer %s = %d observations, %v total; the one table's span took %v", sp.Phase, st.Count, st.Total, sp.Duration)
				}
				if sp.Phase == obs.PhaseTableCopyIn || sp.Phase == obs.PhaseTableView || sp.Phase == obs.PhaseTableLoad {
					blocks += sp.Blocks
					bytes += sp.Bytes
				}
			}
			if rec.Tables != 1 || rec.Blocks != blocks || rec.BytesRestored != bytes || blocks == 0 || bytes == 0 {
				t.Errorf("RecoveryInfo says %d tables, %d blocks, %d bytes; the spans %d blocks, %d bytes",
					rec.Tables, rec.Blocks, rec.BytesRestored, blocks, bytes)
			}
			if want := top[2].End().Sub(top[0].Start); rec.Duration != want {
				t.Errorf("RecoveryInfo.Duration = %v, map begin to ALIVE is %v", rec.Duration, want)
			}
			want := obs.Trace{{TraceID: up[0].TraceID, Kind: obs.KindRestart, Half: obs.HalfStart, Table: "events",
				Worker: rec.PerTable[0].Worker, Blocks: blocks, Bytes: bytes, Start: rec.PerTable[0].Start, Duration: steps}}
			if !reflect.DeepEqual(rec.PerTable, want) {
				t.Errorf("PerTable = %+v, the spans say %+v", rec.PerTable, want)
			}
			if src.wantPath == RecoveryShmView {
				// Promotion runs behind the gap as one span; its blocks are a
				// count on it and a timer of their copies, not spans.
				waitPromoted(t, l)
				l.stopPromoter() // returns once the drain's span has ended
				drain := l.RestartTrace().Phases(obs.PhasePromote)
				copies := reg.Timer("restart.promote.block").Stats().Count
				if len(drain) != 1 || drain[0].Blocks != blocks || copies != int64(blocks) || reg.Timer(obs.PhasePromote).Stats().Count != 1 {
					t.Errorf("promotion of %d blocks: spans %+v, %d block copies timed", blocks, drain, copies)
				}
			}
		})
	}
}

// TestInfoIsAViewOfTheSpans changes nothing but a span list and watches
// RecoveryInfo and ShutdownInfo follow.
func TestInfoIsAViewOfTheSpans(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	span := func(half, phase, table string, worker, startMs, durMs, blocks int) obs.Span {
		return obs.Span{TraceID: 7, Kind: obs.KindRestart, Half: half, Phase: phase, Table: table, Worker: worker,
			Blocks: blocks, Bytes: int64(blocks) << 10, Start: t0.Add(ms(startMs)), Duration: ms(durMs)}
	}
	trace := obs.Trace{
		span(obs.HalfShutdown, obs.PhaseQuiesce, "", -1, 0, 1, 0),
		span(obs.HalfShutdown, obs.PhaseCopyOut, "", -1, 1, 50, 0),
		span(obs.HalfShutdown, obs.PhaseTableSeal, "a", 0, 1, 5, 0),
		span(obs.HalfShutdown, obs.PhaseTablePersist, "a", 0, 6, 20, 0),
		span(obs.HalfShutdown, obs.PhaseTableCopyOut, "a", 0, 26, 25, 6),
		span(obs.HalfShutdown, obs.PhaseTableCopyOut, "b", 1, 1, 9, 2),
		span(obs.HalfShutdown, obs.PhaseCommit, "", -1, 51, 2, 0),
		span(obs.HalfShutdown, obs.PhaseExit, "", -1, 53, 3, 0),
		span(obs.HalfStart, obs.PhaseMap, "", -1, 1000, 2, 0),
		span(obs.HalfStart, obs.PhaseView, "", -1, 1002, 12, 0),
		span(obs.HalfStart, obs.PhaseTableView, "a", 1, 1002, 10, 6),
		span(obs.HalfStart, obs.PhaseTableAdopt, "a", 1, 1012, 1, 0),
		span(obs.HalfStart, obs.PhaseTableLoad, "b", 0, 1002, 4, 2),
		span(obs.HalfStart, obs.PhaseTableReplay, "b", 0, 1006, 7, 0),
		span(obs.HalfStart, obs.PhaseAlive, "", -1, 1014, 1, 0),
		span(obs.HalfStart, obs.PhaseFirstAnswer, "", -1, 1015, 30, 0),
	}
	var down ShutdownInfo
	down.fromSpans(trace)
	// A table's roll-up is a span too: from its first step's start, the sum
	// of its steps.
	share := func(half, table string, worker, startMs, durMs, blocks int) TableCopyStat {
		return span(half, "", table, worker, startMs, durMs, blocks)
	}
	wantDown := ShutdownInfo{Tables: 2, Blocks: 8, BytesCopied: 8 << 10, Duration: ms(56), PerTable: obs.Trace{
		share(obs.HalfShutdown, "a", 0, 1, 50, 6),
		share(obs.HalfShutdown, "b", 1, 1, 9, 2),
	}}
	if !reflect.DeepEqual(down, wantDown) {
		t.Errorf("ShutdownInfo = %+v\nwant %+v", down, wantDown)
	}
	up := RecoveryInfo{Path: RecoveryMixed, Workers: 2}
	up.fromSpans(trace)
	wantUp := RecoveryInfo{Path: RecoveryMixed, Workers: 2, Tables: 2, Blocks: 8, BytesRestored: 8 << 10,
		Duration: ms(15), SnapshotBlocks: 2, ServedFromShm: 6, PerTable: obs.Trace{
			share(obs.HalfStart, "a", 1, 1002, 11, 6),
			share(obs.HalfStart, "b", 0, 1002, 11, 2),
		}}
	if !reflect.DeepEqual(up, wantUp) {
		t.Errorf("RecoveryInfo = %+v\nwant %+v", up, wantUp)
	}

	// One more span — table b's copy-out failed after all — and every view
	// moves with it.
	trace[5].Err = "segment full"
	down.fromSpans(trace)
	if down.Tables != 1 || down.Blocks != 6 || len(down.PerTable) != 1 {
		t.Errorf("after failing b's copy-out: %+v", down)
	}
}

// TestSpansEndWhileRecoveryRenders runs under -race: a four-worker pool ends
// table spans while a reader renders the ledger and the recovery state built
// from it, as /debug/recovery and a span hook do.
func TestSpansEndWhileRecoveryRenders(t *testing.T) {
	e := newEnv(t)
	cfg := e.config(0)
	setProcs(t, 4)
	cfg.Obs, _ = newObserver(t, e, 0)
	old := startLeaf(t, cfg)
	for i := 0; i < 24; i++ {
		ingest(t, old, fmt.Sprintf("t%02d", i), 200, int64(1000*i))
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
			if _, err := json.Marshal(struct {
				Recovery RecoveryInfo
				Restart  obs.Trace
			}{nu.Recovery(), nu.RestartTrace()}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	err = nu.Start()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rec := nu.Recovery(); rec.Path != RecoveryMemory || rec.Tables != 24 || rec.Workers != 4 {
		t.Fatalf("recovery = %+v", rec)
	}
	trace := nu.RestartTrace()
	if n := len(trace.Half(obs.HalfStart).Phases(obs.PhaseTableCopyIn)); n != 24 {
		t.Errorf("%d copy-in spans for 24 tables", n)
	}
	if n := len(trace.Half(obs.HalfShutdown).Phases(obs.PhaseTableCopyOut)); n != 24 {
		t.Errorf("%d copy-out spans handed over for 24 tables", n)
	}
}
