package main

import (
	"hash/crc32"
	"sync"
	"time"
)

// This sandbox's vCPUs change speed by tens of percent from second to second
// and by ten percent or more from minute to minute, so a wall-clock timing
// taken in one run cannot be compared with the same timing in the next. The
// speedometer measures the machine, not the system: a goroutine times a fixed
// kernel of plain Go (no allocation, no call into the system under test)
// every speedInterval for as long as a run lasts. A run's speed factor is the
// median kernel time over speedNominal; every timing a workload reports is
// divided by it, every rate multiplied, so the numbers read as they would on
// this host at its reference speed. The raw factor is printed with each run.

// speedKernel is the fixed work: a checksum over a buffer and a group-by
// style accumulation at random offsets of a table larger than L2. Both keep
// several instructions in flight, as the system's scan, CRC and copy loops
// do; that is what the slow minutes of a shared core slow down most (a
// dependent chain of arithmetic barely notices them and would measure
// nothing).
type speedKernel struct {
	buf  []byte
	keys []uint32
	acc  []int64
	sink int64
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func newSpeedKernel() *speedKernel {
	k := &speedKernel{buf: make([]byte, speedCRCBytes), keys: make([]uint32, speedKeys), acc: make([]int64, speedGroups)}
	x := uint32(7)
	for i := range k.keys {
		x = x*1664525 + 1013904223
		k.keys[i] = (x >> 8) % speedGroups
	}
	for i := range k.buf {
		k.buf[i] = byte(i * 31)
	}
	return k
}

func (k *speedKernel) run() time.Duration {
	t0 := time.Now()
	k.sink += int64(crc32.Checksum(k.buf, castagnoli))
	for _, key := range k.keys {
		k.acc[key] += int64(key)
	}
	return time.Since(t0)
}

// speedometer samples the kernel until stopped. mark splits the samples into
// those taken during set-up and those taken while measuring.
type speedometer struct {
	mu      sync.Mutex
	samples [2]series
	phase   int

	stop chan struct{}
	done chan struct{}
}

func startSpeedometer() *speedometer {
	s := &speedometer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		k := newSpeedKernel()
		k.run() // touch the buffers before the first timed sample
		tick := time.NewTicker(speedInterval)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			d := k.run()
			s.mu.Lock()
			s.samples[s.phase].add(d)
			s.mu.Unlock()
		}
	}()
	return s
}

// mark ends the set-up phase.
func (s *speedometer) mark() {
	s.mu.Lock()
	s.phase = 1
	s.mu.Unlock()
}

// finish stops sampling and returns the speed factors of set-up and of the
// measured part: median kernel time over the nominal one, 1 when a phase was
// too short to be sampled.
func (s *speedometer) finish() (setup, measure float64) {
	close(s.stop)
	<-s.done
	f := func(v series) float64 {
		if len(v) == 0 {
			return 1
		}
		return median(v) / ms(speedNominal)
	}
	return f(s.samples[0]), f(s.samples[1])
}
