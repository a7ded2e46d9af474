package sim

import (
	"testing"
	"time"
)

// TestPaperHeadlineNumbers checks the calibrated model against every
// quantitative claim in the paper (§1, §4.3, §4.5, §6).
func TestPaperHeadlineNumbers(t *testing.T) {
	p := DefaultParams()

	// "Reading that data ... and translating it ... takes 2.5-3 hours."
	disk := p.MachineRestartTime(false)
	if disk < 2*time.Hour+15*time.Minute || disk > 3*time.Hour+30*time.Minute {
		t.Errorf("disk machine restart = %v, paper says 2.5-3 h", disk)
	}

	// "About 2-3 minutes per server" with shared memory.
	mem := p.MachineRestartTime(true)
	if mem < 90*time.Second || mem > 4*time.Minute {
		t.Errorf("shm machine restart = %v, paper says 2-3 min", mem)
	}

	// ~4 orders of magnitude between query latency (subsecond) and disk
	// recovery; shm recovery buys back ~60x.
	speedup := disk.Seconds() / mem.Seconds()
	if speedup < 40 || speedup > 120 {
		t.Errorf("shm speedup = %.0fx, expected 40-120x", speedup)
	}
}

func TestRolloverDurations(t *testing.T) {
	p := DefaultParams()

	// "Typically we restart 2% of the leaf servers at a time, and the
	// entire rollover takes 10-12 hours to restart from disk."
	disk := p.SimulateRollover(false)
	if disk.Total < 9*time.Hour || disk.Total > 15*time.Hour {
		t.Errorf("disk rollover = %v, paper says 10-12 h", disk.Total)
	}

	// "The entire cluster upgrade time is now under an hour" + ~40 min of
	// deployment overhead (§6); allow a modest margin over 1h.
	mem := p.SimulateRollover(true)
	if mem.Total > 80*time.Minute {
		t.Errorf("shm rollover = %v, paper says about an hour", mem.Total)
	}
	if mem.Total < 40*time.Minute {
		t.Errorf("shm rollover = %v, cannot beat the deployment overhead", mem.Total)
	}

	// The shape that matters: an order of magnitude between the paths.
	if ratio := disk.Total.Seconds() / mem.Total.Seconds(); ratio < 8 {
		t.Errorf("rollover speedup = %.1fx, expected >=8x", ratio)
	}
}

func TestAvailabilityDuringRollover(t *testing.T) {
	p := DefaultParams()
	rep := p.SimulateRollover(true)
	// "98% of data online and available to queries" with 2% batches.
	if rep.MinAvailability < 0.975 || rep.MinAvailability >= 1 {
		t.Errorf("min availability = %v", rep.MinAvailability)
	}
	if rep.MeanAvailability < rep.MinAvailability {
		t.Errorf("mean %v < min %v", rep.MeanAvailability, rep.MinAvailability)
	}
	// 2% of 800 leaves = 16 per batch -> 50 batches.
	if rep.Batches != 50 {
		t.Errorf("batches = %d", rep.Batches)
	}
}

func TestWeeklyFullAvailability(t *testing.T) {
	// "100% of the data available only 93% of the time with a 12 hour
	// rollover once a week" -> 1 - 12/168 = 92.9%.
	if got := WeeklyFullAvailability(12 * time.Hour); got < 0.925 || got > 0.935 {
		t.Errorf("disk weekly availability = %v", got)
	}
	// "Scuba is now fully available 99.5% of the time" (≈1 h rollover).
	if got := WeeklyFullAvailability(time.Hour); got < 0.99 || got > 0.9965 {
		t.Errorf("shm weekly availability = %v", got)
	}
	if WeeklyFullAvailability(8*24*time.Hour) != 0 {
		t.Error("rollover longer than a week should give 0")
	}
}

func TestTimelineShape(t *testing.T) {
	// Figure 8: old decreases, new increases, rolling stays one batch.
	p := DefaultParams()
	rep := p.SimulateRollover(true)
	total := p.Machines * p.LeavesPerMachine
	prevNew := -1
	for i, pt := range rep.Timeline {
		if pt.OldVersion+pt.RollingOver+pt.NewVersion != total {
			t.Fatalf("point %d does not sum to %d: %+v", i, total, pt)
		}
		if pt.NewVersion < prevNew {
			t.Fatalf("new version count decreased at %d", i)
		}
		prevNew = pt.NewVersion
	}
	last := rep.Timeline[len(rep.Timeline)-1]
	if last.NewVersion != total || last.Available != 1 {
		t.Errorf("final point = %+v", last)
	}
	first := rep.Timeline[0]
	if first.NewVersion != 0 || first.RollingOver == 0 {
		t.Errorf("first point = %+v", first)
	}
}

func TestParallelismSweep(t *testing.T) {
	// E6: k leaves on one machine share bandwidth; k machines do not.
	p := DefaultParams()
	for _, k := range []int{2, 4, 8} {
		same, spread := p.ParallelismSweep(true, k)
		if same <= spread {
			t.Errorf("k=%d: same-machine %v should exceed spread %v", k, same, spread)
		}
		// Restart time scales roughly linearly with contention.
		ratio := same.Seconds() / spread.Seconds()
		if ratio < float64(k)/2 || ratio > float64(k)*2 {
			t.Errorf("k=%d: contention ratio %.1f implausible", k, ratio)
		}
	}
}

func TestCalibrate(t *testing.T) {
	p := DefaultParams()
	// 1 GiB restored in 2s disk, 0.1s shm.
	c := p.Calibrate(1<<30, 2*time.Second, 100*time.Millisecond)
	if c.DiskRecoverLeafMBps < 500 || c.DiskRecoverLeafMBps > 520 {
		t.Errorf("disk rate = %v", c.DiskRecoverLeafMBps)
	}
	if c.ShmLeafMBps < 10200 || c.ShmLeafMBps > 10300 {
		t.Errorf("shm rate = %v", c.ShmLeafMBps)
	}
	// Zero measurements leave defaults untouched.
	c2 := p.Calibrate(0, 0, 0)
	if c2.DiskRecoverLeafMBps != p.DiskRecoverLeafMBps {
		t.Error("calibrate with zeros changed rates")
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[time.Duration]string{
		30 * time.Second:             "30.0s",
		90 * time.Second:             "1.5m",
		2*time.Hour + 30*time.Minute: "2.5h",
		100 * time.Millisecond:       "0.1s",
	}
	for d, want := range cases {
		if got := FormatDuration(d); got != want {
			t.Errorf("FormatDuration(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestSmallClusterEdge(t *testing.T) {
	p := DefaultParams()
	p.Machines = 1
	p.LeavesPerMachine = 2
	p.BatchFraction = 0.5
	rep := p.SimulateRollover(true)
	if rep.Batches != 2 {
		t.Errorf("batches = %d", rep.Batches)
	}
	if rep.MinAvailability != 0.5 {
		t.Errorf("min availability = %v", rep.MinAvailability)
	}
}
