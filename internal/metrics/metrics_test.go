package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("rows")
	c.Add(5)
	c.Add(3)
	if c.Value() != 8 {
		t.Errorf("value = %d", c.Value())
	}
	if r.Counter("rows") != c {
		t.Error("counter not reused")
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("n").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != 8000 {
		t.Errorf("value = %d", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("free")
	g.Set(100)
	g.Set(42)
	if g.Value() != 42 {
		t.Errorf("value = %d", g.Value())
	}
}

func TestTimer(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("restart")
	tm.Observe(10 * time.Millisecond)
	tm.Observe(30 * time.Millisecond)
	st := tm.Stats()
	if st.Count != 2 || st.Min != 10*time.Millisecond || st.Max != 30*time.Millisecond {
		t.Errorf("stats = %+v", st)
	}
	if st.Mean != 20*time.Millisecond || st.Total != 40*time.Millisecond {
		t.Errorf("mean/total = %v/%v", st.Mean, st.Total)
	}
}

func TestTimerTime(t *testing.T) {
	tm := &Timer{}
	tm.Time(func() { time.Sleep(time.Millisecond) })
	if st := tm.Stats(); st.Count != 1 || st.Total < time.Millisecond {
		t.Errorf("stats = %+v", st)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("rows").Add(10)
	r.Gauge("free").Set(99)
	r.Gauge("busy").SetDuration(250 * time.Microsecond)
	r.Timer("t").Observe(time.Millisecond)
	r.Histogram("h").ObserveDuration(2 * time.Millisecond)

	snap := r.Snapshot()
	if snap.Counters["rows"] != 10 {
		t.Errorf("counter = %d", snap.Counters["rows"])
	}
	if g := snap.Gauges["free"]; g.Value != 99 || g.Unit != "" {
		t.Errorf("gauge free = %+v", g)
	}
	if g := snap.Gauges["busy"]; g.Value != 250 || g.Unit != "us" {
		t.Errorf("gauge busy = %+v", g)
	}
	if ts := snap.Timers["t"]; ts.Count != 1 || ts.Total != time.Millisecond {
		t.Errorf("timer = %+v", ts)
	}
	hs := snap.Histograms["h"]
	if hs.Count != 1 || !hs.IsDuration || hs.Min != 2000 || hs.Max != 2000 {
		t.Errorf("histogram = %+v", hs)
	}
}

func TestGaugeDurationAndAdd(t *testing.T) {
	var g Gauge
	g.SetDuration(1500 * time.Microsecond)
	if got := g.Value(); got != 1500 {
		t.Errorf("SetDuration value = %d, want 1500", got)
	}
	g.Set(10)
	g.Add(5)
	g.Add(-3)
	if got := g.Value(); got != 12 {
		t.Errorf("Add value = %d, want 12", got)
	}
}
