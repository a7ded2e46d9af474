package leaf

import (
	"testing"
	"time"

	"scuba/internal/table"
)

func TestMaintainerExpires(t *testing.T) {
	e := newEnv(t)
	cfg := e.config(0)
	cfg.Table = table.Options{MaxAgeSeconds: 100}
	// Virtual clock far in the future so everything ingested at small
	// timestamps is expired immediately.
	cfg.Clock = func() int64 { return 1 << 30 }
	l := startLeaf(t, cfg)
	ingest(t, l, "events", 100, 1000)
	if err := l.SealAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.SyncToDisk(); err != nil {
		t.Fatal(err)
	}

	m := l.StartMaintenance(MaintenanceConfig{ExpireInterval: 5 * time.Millisecond})
	defer m.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		// Expired by the background loop, heap and store alike.
		if images, _, _ := l.store.Images("events"); l.Stats().Blocks == 0 && len(images) == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("maintenance never expired the data: %+v", l.Stats())
}

func TestMaintainerSurvivesShutdown(t *testing.T) {
	e := newEnv(t)
	l := startLeaf(t, e.config(0))
	ingest(t, l, "events", 50, 1000)
	errs := make(chan error, 16)
	m := l.StartMaintenance(MaintenanceConfig{
		ExpireInterval: time.Millisecond,
		OnError:        func(err error) { errs <- err },
	})
	if _, err := l.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// Give the loop a few ticks against the exited leaf, then stop.
	time.Sleep(20 * time.Millisecond)
	m.Stop()
	m.Stop() // idempotent
	select {
	case err := <-errs:
		t.Errorf("maintenance reported error after shutdown: %v", err)
	default:
	}
}

func TestMaintainerStopIsPrompt(t *testing.T) {
	e := newEnv(t)
	l := startLeaf(t, e.config(0))
	m := l.StartMaintenance(MaintenanceConfig{ExpireInterval: time.Hour})
	done := make(chan struct{})
	go func() {
		m.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop blocked")
	}
}
