package wire

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"scuba/internal/fault"
	"scuba/internal/metrics"
	"scuba/internal/query"
)

// blackholeListener accepts connections and never responds — the TCP-level
// equivalent of a SIGSTOP'd leaf. Before the deadline work, a Call against
// it blocked forever.
func blackholeListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { conn.Close() })
		}
	}()
	return ln
}

func TestRPCTimeoutUnwedgesHungServer(t *testing.T) {
	ln := blackholeListener(t)
	c := Dial(ln.Addr().String())
	c.rpcTimeout = 100 * time.Millisecond
	c.retryMax = 2 * time.Millisecond
	defer c.Close()

	start := time.Now()
	err := c.Ping()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("ping against a hung server succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("err = %v, want a timeout", err)
	}
	// Four attempts (1 + 3 retries) at 100ms each plus slack.
	if elapsed > 2*time.Second {
		t.Fatalf("ping took %v; deadline did not bound the call", elapsed)
	}
}

func TestDialTimeoutBoundsConnect(t *testing.T) {
	// A port from TEST-NET that drops SYNs on most setups; even when it
	// RSTs instead, the call must come back quickly either way.
	c := Dial("192.0.2.1:9")
	c.dialTimeout = 100 * time.Millisecond
	defer c.Close()
	start := time.Now()
	if _, err := c.acquire(); err == nil {
		t.Fatal("dial to a blackhole address succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("dial took %v, want bounded by the dial timeout", elapsed)
	}
}

// TestSlowRPCDoesNotStarveConcurrentCallers pins the satellite fix: the old
// client held c.mu across encode/decode, so one slow query serialized every
// other caller of the same client. Now each in-flight call owns its own
// pooled connection.
func TestSlowRPCDoesNotStarveConcurrentCallers(t *testing.T) {
	t.Cleanup(fault.Reset)
	fault.Reset()
	_, c, _ := newServer(t, 80)

	// Queries stall 300ms server-side; pings are instant.
	fault.Arm(fault.Point{Site: fault.SiteLeafQuery, Action: fault.ActDelay, Delay: 300 * time.Millisecond})

	q := &query.Query{Table: "events", From: 0, To: 1 << 40,
		Aggregations: []query.Aggregation{{Op: query.AggCount}}}
	queryDone := make(chan error, 1)
	go func() {
		_, err := c.Query(q)
		queryDone <- err
	}()
	time.Sleep(30 * time.Millisecond) // let the slow query occupy its conn

	start := time.Now()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("ping waited %v behind a slow query on the same client", elapsed)
	}
	if err := <-queryDone; err != nil {
		t.Fatal(err)
	}
}

func TestIdempotentRetryWithBackoff(t *testing.T) {
	t.Cleanup(fault.Reset)
	fault.Reset()
	_, c, _ := newServer(t, 81)

	// First two reads fail at the transport; the third succeeds.
	// maxRetries (3) must absorb both failures.
	fault.Arm(fault.Point{Site: fault.SiteWireRead, Action: fault.ActError, Count: 2})
	c.retryMax = 4 * time.Millisecond
	if err := c.Ping(); err != nil {
		t.Fatalf("ping with 2 injected transport errors = %v", err)
	}
	if got := fault.Hits(fault.SiteWireRead); got != 3 {
		t.Fatalf("wire.read hits = %d, want 3 (two failures + success)", got)
	}
}

// TestRetryCountersInRegistry pins the client-side retry observability:
// every retried attempt bumps wire.retries, and a call that fails after its
// last retry bumps wire.retry_exhausted — signals no server-side counter can
// provide, because the server never saw the failed attempts.
func TestRetryCountersInRegistry(t *testing.T) {
	t.Cleanup(fault.Reset)
	fault.Reset()
	_, c, _ := newServer(t, 84)

	reg := metrics.NewRegistry()
	c.opts.Metrics = reg
	c.retryMax = 4 * time.Millisecond

	// Two transport failures, then success: two retries, none exhausted.
	fault.Arm(fault.Point{Site: fault.SiteWireRead, Action: fault.ActError, Count: 2})
	if err := c.Ping(); err != nil {
		t.Fatalf("ping with 2 injected transport errors = %v", err)
	}
	if got := reg.Counter("wire.retries").Value(); got != 2 {
		t.Errorf("wire.retries = %d, want 2", got)
	}
	if got := reg.Counter("wire.retry_exhausted").Value(); got != 0 {
		t.Errorf("wire.retry_exhausted = %d, want 0", got)
	}

	// Every attempt fails: maxRetries more retries, one exhaustion.
	fault.Reset()
	fault.Arm(fault.Point{Site: fault.SiteWireRead, Action: fault.ActError})
	if err := c.Ping(); err == nil {
		t.Fatal("ping with all attempts failing succeeded")
	}
	if got := reg.Counter("wire.retries").Value(); got != 2+int64(maxRetries) {
		t.Errorf("wire.retries = %d, want %d", got, 2+maxRetries)
	}
	if got := reg.Counter("wire.retry_exhausted").Value(); got != 1 {
		t.Errorf("wire.retry_exhausted = %d, want 1", got)
	}

	// A mutation is never retried, so its failure counts in neither.
	fault.Reset()
	fault.Arm(fault.Point{Site: fault.SiteWireWrite, Action: fault.ActError, Count: 1})
	if err := c.AddRows("events", mkRows(1, 0)); err == nil {
		t.Fatal("AddRows with injected transport error succeeded")
	}
	if got := reg.Counter("wire.retries").Value(); got != 2+int64(maxRetries) {
		t.Errorf("wire.retries after mutation failure = %d (mutation was retried?)", got)
	}
	if got := reg.Counter("wire.retry_exhausted").Value(); got != 1 {
		t.Errorf("wire.retry_exhausted after mutation failure = %d", got)
	}
}

func TestMutatingRequestsNeverRetry(t *testing.T) {
	t.Cleanup(fault.Reset)
	fault.Reset()
	_, c, _ := newServer(t, 82)

	fault.Arm(fault.Point{Site: fault.SiteWireWrite, Action: fault.ActError, Count: 1})
	if err := c.AddRows("events", mkRows(1, 0)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("AddRows = %v, want the injected error surfaced (no retry)", err)
	}
	if got := fault.Hits(fault.SiteWireWrite); got != 1 {
		t.Fatalf("wire.write hits = %d, want exactly 1 (no retry of a mutation)", got)
	}
}

func TestBackoffIsCappedAndJittered(t *testing.T) {
	c := Dial("127.0.0.1:0")
	c.retryMax = 100 * time.Millisecond
	for attempt := 0; attempt < 8; attempt++ {
		for i := 0; i < 50; i++ {
			d := c.backoff(attempt)
			if d > c.retryMax {
				t.Fatalf("attempt %d: backoff %v exceeds cap %v", attempt, d, c.retryMax)
			}
			if d < retryBase/2 {
				t.Fatalf("attempt %d: backoff %v below base/2", attempt, d)
			}
		}
	}
}

func TestPoolReusesConnections(t *testing.T) {
	_, c, _ := newServer(t, 83)

	// Count dials with the fault registry's hit counter on wire.dial (After
	// is huge, so the point never actually fires).
	t.Cleanup(fault.Reset)
	fault.Reset()
	fault.Arm(fault.Point{Site: fault.SiteWireDial, Action: fault.ActError, After: 1 << 30})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if err := c.Ping(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// 4 concurrent goroutines, 40 calls total: at most a handful of dials,
	// nowhere near one per call.
	if d := fault.Hits(fault.SiteWireDial); d > 8 {
		t.Fatalf("40 calls used %d dials; pooling is not reusing connections", d)
	}
}
