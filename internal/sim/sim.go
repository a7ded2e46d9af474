// Package sim is a discrete-event model of a production-scale Scuba cluster
// (hundreds of machines, ~120 GB per machine). The real implementation in
// this repository runs at laptop scale; the simulator extrapolates the
// paper's hour-scale claims (§1, §4.5, §6) from per-machine throughput
// parameters, which can be calibrated from measurements of the real code.
//
// The model:
//
//   - Every machine runs LeavesPerMachine leaf servers holding DataPerLeafGB
//     each (§2: 8 leaves, 10-15 GB per leaf, 120 GB per machine).
//   - Recovery bandwidth is a per-machine resource: leaves restarting
//     concurrently on one machine share it, which is exactly why rollovers
//     restart one leaf per machine at a time (§2, §6). Memory bandwidth is
//     the critical resource for shm recovery, disk+CPU for disk recovery.
//   - A rollover proceeds in batches of BatchFraction of all leaves, at most
//     MaxPerMachine per machine; the next batch starts when the previous
//     batch's leaves finish recovery, plus a detection/initiation overhead
//     (§4.5). Deployment software adds a fixed overhead (§6: ~40 minutes).
//
// Time is virtual: a simulated 12-hour rollover takes microseconds to
// compute, which is what makes the weekly-availability experiment (E5)
// tractable.
package sim

import (
	"fmt"
	"math"
	"time"
)

// GB is one gigabyte in bytes.
const GB = float64(1 << 30)

// Params describe the simulated cluster and its calibrated rates.
type Params struct {
	Machines         int
	LeavesPerMachine int
	// DataPerLeafGB is each leaf's resident data (10-15 GB in the paper).
	DataPerLeafGB float64

	// DiskRecoverLeafMBps is the rate of one leaf reading AND translating
	// the disk format when it restarts alone on its machine (the rollover
	// case: ~20 MB/s, dominated by single-process translation CPU).
	DiskRecoverLeafMBps float64
	// DiskContention models how concurrent recoveries on one machine
	// degrade each other (disk seek thrash plus CPU sharing): a leaf
	// sharing its machine with k-1 other recovering leaves runs at
	// DiskRecoverLeafMBps / (1 + DiskContention*(k-1)). The paper's
	// all-eight-at-once number (120 GB in 2.5-3 h, ~12 MB/s aggregate)
	// calibrates this to ~1.7 — aggregate throughput with eight readers is
	// *lower* than one reader, which is why rollovers restart one leaf per
	// machine (§2).
	DiskContention float64
	// ShmLeafMBps is one leaf's restore rate from shared memory when alone
	// (a large memcpy approaches the machine's memory bandwidth).
	ShmLeafMBps float64
	// ShmContention is 1.0: memory bandwidth is shared evenly, so the
	// machine-level restore time is constant no matter how many of its
	// leaves restart at once ("memory bandwidth for a machine is constant,
	// no matter how many servers try to roll over", §3).
	ShmContention float64
	// ShmShutdownSeconds is the copy-to-shm-and-exit time (3-4 s, §4.3).
	ShmShutdownSeconds float64
	// DiskShutdownSeconds covers the disk-path clean shutdown (final sync).
	DiskShutdownSeconds float64
	// DetectSeconds is the per-batch overhead of detecting recovery
	// completion and initiating the next batch (§4.5).
	DetectSeconds float64
	// DeploymentOverheadMinutes is the fixed deployment-software overhead
	// (§6: about 40 minutes).
	DeploymentOverheadMinutes float64

	BatchFraction float64
	MaxPerMachine int
}

// DefaultParams returns a calibration matching the paper's cluster: 100
// machines x 8 leaves x 15 GB.
func DefaultParams() Params {
	return Params{
		Machines:                  100,
		LeavesPerMachine:          8,
		DataPerLeafGB:             15,
		DiskRecoverLeafMBps:       20, // one leaf alone: 15 GB in ~13 min
		DiskContention:            1.7,
		ShmLeafMBps:               800, // memcpy-speed restore
		ShmContention:             1.0,
		ShmShutdownSeconds:        3.5,
		DiskShutdownSeconds:       10,
		DetectSeconds:             10,
		DeploymentOverheadMinutes: 40,
		BatchFraction:             0.02,
		MaxPerMachine:             1,
	}
}

// Calibrate rescales the single-leaf recovery rates from measured
// laptop-scale numbers (bytes restored and wall time for each path),
// preserving the shape of the real implementation's performance in the
// extrapolation.
func (p Params) Calibrate(dataBytes int64, diskRecovery, shmRecovery time.Duration) Params {
	if dataBytes > 0 && diskRecovery > 0 {
		p.DiskRecoverLeafMBps = float64(dataBytes) / (1 << 20) / diskRecovery.Seconds()
	}
	if dataBytes > 0 && shmRecovery > 0 {
		p.ShmLeafMBps = float64(dataBytes) / (1 << 20) / shmRecovery.Seconds()
	}
	return p
}

// LeafRestartTime returns how long one leaf takes to restart when
// `concurrentOnMachine` leaves of its machine restart at once — they share
// the machine's recovery bandwidth (E6).
func (p Params) LeafRestartTime(useShm bool, concurrentOnMachine int) time.Duration {
	if concurrentOnMachine < 1 {
		concurrentOnMachine = 1
	}
	k := float64(concurrentOnMachine)
	dataMB := p.DataPerLeafGB * GB / (1 << 20)
	var rate, shutdown float64
	if useShm {
		rate = p.ShmLeafMBps / (1 + p.ShmContention*(k-1))
		shutdown = p.ShmShutdownSeconds
	} else {
		rate = p.DiskRecoverLeafMBps / (1 + p.DiskContention*(k-1))
		shutdown = p.DiskShutdownSeconds
	}
	secs := shutdown + dataMB/rate
	return time.Duration(secs * float64(time.Second))
}

// MachineRestartTime returns how long a whole machine takes when all of its
// leaves restart at once (the paper's 2-3 minutes shm vs 2.5-3 hours disk).
func (p Params) MachineRestartTime(useShm bool) time.Duration {
	return p.LeafRestartTime(useShm, p.LeavesPerMachine)
}

// TimelinePoint samples the rollover dashboard (Figure 8).
type TimelinePoint struct {
	Elapsed     time.Duration
	OldVersion  int
	RollingOver int
	NewVersion  int
	Available   float64
}

// Report summarizes one simulated rollover.
type Report struct {
	UseShm   bool
	Total    time.Duration
	Batches  int
	PerBatch time.Duration
	Timeline []TimelinePoint
	// MeanAvailability integrates data availability over the rollover.
	MeanAvailability float64
	// MinAvailability is the floor (≈ 1 - BatchFraction).
	MinAvailability float64
}

// SimulateRollover runs the full-cluster upgrade and returns its report.
func (p Params) SimulateRollover(useShm bool) *Report {
	total := p.Machines * p.LeavesPerMachine
	if p.BatchFraction <= 0 {
		p.BatchFraction = 0.02
	}
	if p.MaxPerMachine <= 0 {
		p.MaxPerMachine = 1
	}
	batchSize := int(math.Ceil(p.BatchFraction * float64(total)))
	if batchSize < 1 {
		batchSize = 1
	}
	// The orchestrator defers leaves beyond MaxPerMachine per machine to
	// later batches (like cluster.pickBatch), so the in-flight batch is
	// clamped; any remaining co-location shares machine bandwidth.
	if p.MaxPerMachine > 0 && batchSize > p.Machines*p.MaxPerMachine {
		batchSize = p.Machines * p.MaxPerMachine
	}
	perMachine := int(math.Ceil(float64(batchSize) / float64(p.Machines)))
	if perMachine < 1 {
		perMachine = 1
	}
	leafTime := p.LeafRestartTime(useShm, perMachine)
	batchTime := leafTime + time.Duration(p.DetectSeconds*float64(time.Second))

	rep := &Report{UseShm: useShm, PerBatch: batchTime, MinAvailability: 1}
	elapsed := time.Duration(p.DeploymentOverheadMinutes * float64(time.Minute))
	restarted := 0
	for restarted < total {
		n := batchSize
		if restarted+n > total {
			n = total - restarted
		}
		avail := 1 - float64(n)/float64(total)
		if avail < rep.MinAvailability {
			rep.MinAvailability = avail
		}
		rep.Timeline = append(rep.Timeline, TimelinePoint{
			Elapsed:     elapsed,
			OldVersion:  total - restarted - n,
			RollingOver: n,
			NewVersion:  restarted,
			Available:   avail,
		})
		elapsed += batchTime
		restarted += n
		rep.Batches++
	}
	rep.Timeline = append(rep.Timeline, TimelinePoint{
		Elapsed: elapsed, NewVersion: total, Available: 1,
	})
	rep.Total = elapsed

	// Mean availability while batches run (deployment overhead is fully
	// available: old code keeps serving).
	rollingTime := time.Duration(rep.Batches) * batchTime
	if rep.Total > 0 {
		unavailable := float64(batchSize) / float64(total)
		rep.MeanAvailability = 1 - unavailable*(rollingTime.Seconds()/rep.Total.Seconds())
	}
	return rep
}

// WeeklyFullAvailability returns the fraction of a week during which 100%
// of the data is available, given one rollover per week. The paper: 93%
// with 12-hour disk rollovers, 99.5% with shm (§1).
func WeeklyFullAvailability(rollover time.Duration) float64 {
	week := 7 * 24 * time.Hour
	if rollover >= week {
		return 0
	}
	return 1 - rollover.Seconds()/week.Seconds()
}

// ParallelismSweep compares restarting k leaves concurrently on one machine
// against k leaves on k machines (E6). It returns the time for each layout.
func (p Params) ParallelismSweep(useShm bool, k int) (sameMachine, spreadOut time.Duration) {
	return p.LeafRestartTime(useShm, k), p.LeafRestartTime(useShm, 1)
}

// FormatDuration renders a duration the way the experiment tables do.
func FormatDuration(d time.Duration) string {
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%.1fh", d.Hours())
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	default:
		return fmt.Sprintf("%.1fs", d.Seconds())
	}
}
