package main

import (
	"fmt"
	"time"

	"scuba"
)

// restart_shm is the paper's headline path. Leaf 0 holds ShmLeaf0Rows, leaf
// 1 a ninth of that. Each cycle ingests ShmCycleRows fresh, unsealed rows into
// leaf 0, shuts it down through shared memory, lets the old process image go
// (untimed) and brings up a new incarnation on the same address; cycles
// alternate the paper's eager copy-in with instant-on. The gap of a cycle is
// the Shutdown call plus NewLeaf to the first exact per-table counts through
// a fresh client. Copy-in does the work in eager cycles and is bypassed in
// instant-on cycles. A prober queries through the aggregator throughout.

func restartShm(r *run) (*measures, error) {
	m := newMeasures()
	sz := r.sz
	nodes := []*node{r.newNode(0, true), r.newNode(1, true)}
	if err := r.bulkLoad(nodes, planRows([]int{sz.ShmLeaf0Rows, sz.ShmLeaf1Rows})); err != nil {
		return nil, err
	}
	c, err := r.serve(nodes)
	if err != nil {
		return nil, err
	}
	defer c.close()
	p := r.startProber(c.agg.Addr(), r.newestWindow())
	defer p.finish()
	r.setupDone(m)

	n := nodes[0]
	cycles := max(int(float64(r.seconds)*sz.ShmCyclesPerSecond)/2*2, 2)
	gap := map[bool]*series{false: {}, true: {}}
	var shutdownMs, ingestRate series
	// Per-layer series, filled from what the calls return and, in the traced
	// run, from each incarnation's registry.
	layer := map[string][]float64{}
	add := func(name string, v float64) { layer[name] = append(layer[name], v) }
	var shmBytesPerRow float64

	for cyc := 0; cyc < cycles; cyc++ {
		instant := cyc%2 == 1
		kind := string(scuba.RecoveryMemory)
		if instant {
			kind = string(scuba.RecoveryShmView)
		}
		fresh := r.freshRows(sz.ShmCycleRows)
		iw := r.tr.root("cycle.ingest")
		rows, took := r.cycleIngest(n, 0, fresh, p, iw)
		iw.end()
		ingestRate = append(ingestRate, float64(rows)/took.Seconds())
		p.from.Store(r.newestWindow())
		key := fmt.Sprintf("cycle-%d", cyc)
		if err := r.fingerprint(n, key, p.from.Load()); err != nil {
			r.fail("restart_shm: before restart: %v", err)
		}

		r.op(1)
		held := n.leaf.Stats().Rows
		w := r.tr.window("restart.shutdown")
		sp := w.child("leaf.shutdown")
		t0 := time.Now()
		info, err := n.leaf.Shutdown()
		down := time.Since(t0)
		sp.end()
		w.end()
		if err != nil {
			return nil, fmt.Errorf("cycle %d: shutdown: %w", cyc, err)
		}
		shutdownMs.add(down)
		if r.traced() {
			phase := phaseTimers(n.reg)
			out := phase("restart.copy_out")
			add("shm.copy_out_ms", out)
			add("shm.commit_ms", phase("restart.commit"))
			add("shm.copy_out_mb_per_s", mbPerS(info.BytesCopied, out))
		}
		shmBytesPerRow = float64(info.BytesCopied) / float64(max(held, 1))
		n.stop()
		n.leaf = nil
		exitProcess()

		w = r.tr.window("restart.recover." + kind)
		t1 := time.Now()
		if err := n.start(r, instant, w); err != nil {
			return nil, fmt.Errorf("cycle %d: %w", cyc, err)
		}
		started := time.Since(t1)
		t2 := time.Now()
		err = r.leafCounts(n, 0, w)
		answered := time.Since(t2)
		up := time.Since(t1)
		w.end()
		if err != nil {
			r.fail("restart_shm: cycle %d: %v", cyc, err)
		}
		rec := n.leaf.Recovery()
		if string(rec.Path) != kind {
			r.fail("restart_shm: cycle %d recovered by %q, want %q", cyc, rec.Path, kind)
		}
		gap[instant].add(down + up)

		pw := r.tr.root("restart.promote")
		t3 := time.Now()
		r.waitPromoted(n.leaf)
		drained := time.Since(t3)
		pw.end()
		if r.traced() {
			phase := phaseTimers(n.reg)
			add("leaf.start_ms."+kind, ms(started))
			add("leaf.first_answer_ms."+kind, ms(answered))
			add("shm.map_ms", phase("restart.map"))
			if instant {
				add("shm.view_ms", phase("restart.view"))
				add("leaf.promote_drain_ms", ms(drained))
				add("leaf.promoted_blocks", float64(n.leaf.Recovery().PromotedBlocks))
			} else {
				in := phase("restart.copy_in")
				add("shm.copy_in_ms", in)
				add("shm.copy_in_mb_per_s", mbPerS(rec.BytesRestored, in))
			}
		}
		if err := r.fingerprint(n, key, p.from.Load()); err != nil {
			r.fail("restart_shm: after restart: %v", err)
		}
		r.oracle.forget(key)
	}
	probes := p.finish()
	m.setE2E("primary_ms", m.report("gap.eager", *gap[false]), len(*gap[false]))
	m.setE2E("secondary_ms", m.report("gap.instant_on", *gap[true]), len(*gap[true]))
	m.report("shutdown", shutdownMs)
	m.setE2E("throughput_per_s", median(ingestRate), len(ingestRate))
	m.report("prober", probes)
	m.setE2E("query_p95_ms", percentile(probes, 95), len(probes))
	if err := r.finish(m, nodes, c); err != nil {
		return nil, err
	}
	m.note("restart_shm: %d cycles on a leaf of %d rows (+%d fresh rows each), alternating eager copy-in and instant-on; prober every %v; in-process restarts leave out exec and the port rebind by a new process",
		cycles, sz.ShmLeaf0Rows, sz.ShmCycleRows, probeInterval)

	if r.traced() {
		m.setLayer("leaf.shutdown_ms", median(shutdownMs), len(shutdownMs))
		m.setLayer("client.probe_p50_ms", median(probes), len(probes))
		for name, s := range layer {
			m.setMedian(name, s)
		}
		m.setLayer("shm.bytes_per_row", shmBytesPerRow, 0)
	}
	return m, nil
}
