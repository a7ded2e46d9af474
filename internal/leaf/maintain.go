package leaf

import (
	"time"
)

// MaintenanceConfig drives the background loop every deployed leaf runs:
// expiration of aged data (§2: leaves "delete data as it expires due to
// either age or size limits"). Disk writes need no loop — §4.1's
// asynchronous write-behind runs when a block seals (persistBehind).
type MaintenanceConfig struct {
	// ExpireInterval is how often retention runs (default 1m).
	ExpireInterval time.Duration
	// OnError receives background errors (nil = dropped). Shutdown killing
	// an in-flight delete is not an error.
	OnError func(error)
}

// Maintainer owns a leaf's background loop.
type Maintainer struct {
	leaf *Leaf
	cfg  MaintenanceConfig
	stop chan struct{}
	done chan struct{}
}

// StartMaintenance launches the loop. Call Stop before (or after) shutting
// the leaf down; the loop also winds down by itself once the leaf stops
// accepting requests.
func (l *Leaf) StartMaintenance(cfg MaintenanceConfig) *Maintainer {
	if cfg.ExpireInterval <= 0 {
		cfg.ExpireInterval = time.Minute
	}
	m := &Maintainer{leaf: l, cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	go m.run()
	return m
}

func (m *Maintainer) run() {
	defer close(m.done)
	expT := time.NewTicker(m.cfg.ExpireInterval)
	defer expT.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-expT.C:
			if m.leaf.State() != StateAlive {
				continue
			}
			if _, err := m.leaf.ExpireAll(m.leaf.cfg.Clock()); err != nil && m.cfg.OnError != nil {
				m.cfg.OnError(err)
			}
		}
	}
}

// Stop halts the loop and waits for it to finish.
func (m *Maintainer) Stop() {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	<-m.done
}
