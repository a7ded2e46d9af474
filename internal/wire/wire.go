// Package wire is the RPC protocol between Scuba processes: tailers and
// aggregators talk to leaf servers over TCP (Figure 1). The protocol is a
// persistent connection carrying gob-encoded request/response pairs; the
// client side implements the tailer.Target and aggregator.LeafTarget
// interfaces so in-process and networked deployments are interchangeable.
//
// The shutdown RPC is how the rollover script asks a leaf to exit cleanly
// through shared memory (§4.3); the script then waits for the process to
// die and kills it after a timeout.
package wire

import (
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"scuba/internal/fault"
	"scuba/internal/leaf"
	"scuba/internal/metrics"
	"scuba/internal/obs"
	"scuba/internal/query"
	"scuba/internal/rowblock"
)

// ProtocolVersion is the envelope version this build speaks. Version 2
// added trace context to Request and ExecStats to Response. The encoding is
// gob, which matches struct fields by name and omits zero values, so a field
// one side lacks decodes as zero on the other: a v1 server ignores a v2
// client's trace fields. Golden-frame tests pin that. Version 3 moved ingest
// off gob: rows travel as one batch frame (rowblock.DecodeFrame) under
// KindAddBatch, a kind a v2 server rejects by name — so leaves upgrade before
// tailers. Version 4 moved the query result off gob: it travels as one
// result frame (query.DecodeResultFrame) in Response.Frame. A server answers
// a query only for a requester of minQueryVersion or later and refuses any
// other by name, so leaves upgrade before aggregators and aggregators before
// clients; a client that gets a reply without a frame says the peer is older
// and has no answer from it. The same release dropped gob ingest: kind 2, a
// v2 tailer's rows, is answered as any unknown kind is (DESIGN.md §13 has
// the table).
const ProtocolVersion = 4

// minQueryVersion is the oldest requester a query is answered for: the first
// version that reads the result frame.
const minQueryVersion = 4

// Kind tags a request.
type Kind uint8

func (k Kind) String() string {
	switch k {
	case KindPing:
		return "ping"
	case KindQuery:
		return "query"
	case KindStats:
		return "stats"
	case KindShutdown:
		return "shutdown"
	case KindLeafStatus:
		return "leafstatus"
	case KindShardMap:
		return "shardmap"
	case KindFlush:
		return "flush"
	case KindAddBatch:
		return "addbatch"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Request kinds. KindLeafStatus and KindShardMap are aggregator admin RPCs
// (v2-additive: gob carries the Kind by value, and an old server answers an
// unknown kind with an explicit error rather than misbehaving): the rollover
// orchestrator flips leaf statuses and reads shard coverage through them.
const (
	KindPing Kind = iota + 1
	_             // 2 was KindAddRows, gob ingest, until protocol 4: the number stays taken
	KindQuery
	KindStats
	KindShutdown
	KindLeafStatus
	KindShardMap
	// KindFlush seals every table's in-progress block and syncs all blocks
	// to the disk backup — the durability barrier an orchestrator raises
	// before doing anything that could kill the process uncleanly
	// (v2-additive).
	KindFlush
	_ // 9 was the cluster scraper's metrics pull, until leaves wrote their own facts: the number stays taken
	// KindAddBatch ingests Request.Batch, one batch frame, into Table (v3).
	// It is a kind of its own rather than a field on the gob ingest kind it
	// replaced, so that a pre-v3 server answers "unknown request kind"
	// instead of decoding a request with no rows and acking a batch it never
	// saw.
	KindAddBatch
)

// Request is one RPC request.
type Request struct {
	Kind  Kind
	Table string
	// Batch is the KindAddBatch payload: one batch frame, logged and applied
	// by the leaf as the bytes it is.
	Batch []byte
	Query *query.Query
	// UseShm selects the shared memory shutdown path (vs disk-only).
	UseShm bool
	// Version is the sender's ProtocolVersion (0 = pre-versioning client):
	// a query from below minQueryVersion is refused.
	Version uint8
	// Trace carries the query's trace context (v2+; zero = untraced).
	Trace obs.TraceContext
	// Shards scopes a query to these shards of its table (v2-additive: gob
	// omits the empty slice, and a pre-shard server decodes it as nil — it
	// would answer the whole logical table, which is why a shard-routing
	// aggregator must only be pointed at shard-capable leaves). Non-empty
	// only under shard routing.
	Shards []int
	// LeafName/LeafStatus are the KindLeafStatus payload: flip the named
	// leaf to this shard.Status in the aggregator's router (v2-additive).
	LeafName   string
	LeafStatus uint8
}

// Response is one RPC response.
type Response struct {
	Err   string
	Stats *leaf.Stats
	// Frame is a query's answer: one result frame (v4+).
	Frame    []byte
	Shutdown *leaf.ShutdownInfo
	// Exec is the leaf's execution report for a traced query (v2+; nil for
	// untraced queries and pre-trace servers).
	Exec *obs.ExecStats
	// ShardMap is the aggregator's encoded shard map (shard.Map.Encode) and
	// LeafStatuses the router's per-leaf statuses, index-parallel to the
	// map's leaves; MapVersion counts router mutations. KindShardMap only
	// (v2-additive).
	ShardMap     []byte
	LeafStatuses []uint8
	MapVersion   int64
}

// rpcServer is the one accept / track / decode / handle / encode / close
// loop; the leaf server and the aggregator server are handlers on it.
type rpcServer struct {
	ln net.Listener
	// handle answers one request. A non-nil sent runs once the reply has been
	// written to the caller (or the write failed).
	handle func(*Request) (resp *Response, sent func())

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	// replies counts replies Close must let reach their caller before it
	// closes their connections.
	replies sync.WaitGroup
}

// listen binds addr and starts serving handle on it.
func (s *rpcServer) listen(addr string, handle func(*Request) (*Response, func())) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("wire: listen: %w", err)
	}
	s.ln, s.handle, s.conns = ln, handle, make(map[net.Conn]struct{})
	go s.acceptLoop()
	return nil
}

// Addr returns the server's listen address.
func (s *rpcServer) Addr() string { return s.ln.Addr().String() }

func (s *rpcServer) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *rpcServer) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			return
		}
		resp, sent := s.handle(&req)
		err := enc.Encode(resp)
		if sent != nil {
			sent()
		}
		if err != nil {
			return
		}
	}
}

// Close stops accepting and closes all connections, after letting the
// replies it was asked to wait for reach their callers.
func (s *rpcServer) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.replies.Wait()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	return s.ln.Close()
}

// Server exposes one leaf over TCP.
type Server struct {
	rpcServer
	leaf     *leaf.Leaf
	reg      *metrics.Registry
	shutdown chan leaf.ShutdownInfo
}

// NewServer starts serving the leaf on addr (use "127.0.0.1:0" to pick a
// free port) with a private metrics registry. The returned server must be
// Closed.
func NewServer(l *leaf.Leaf, addr string) (*Server, error) {
	return NewServerOn(l, addr, nil)
}

// NewServerOn is NewServer with a caller-owned registry (nil creates a
// private one), so a daemon's /metrics endpoint shows the RPC counters and
// query latency histograms alongside its restart-phase timers.
func NewServerOn(l *leaf.Leaf, addr string, reg *metrics.Registry) (*Server, error) {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{leaf: l, reg: reg, shutdown: make(chan leaf.ShutdownInfo, 1)}
	err := s.listen(addr, func(req *Request) (*Response, func()) {
		resp := s.handle(req)
		if req.Kind == KindShutdown && resp.Err == "" && s.signalShutdown(*resp.Shutdown) {
			return resp, s.replies.Done
		}
		return resp, nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Metrics exposes the server's request counters and timers: rpc.<kind>
// counters, rpc.errors, rows.added, and the query.latency timer.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// ShutdownRequested delivers the shutdown info once a shutdown RPC has
// completed; the owning process exits after receiving it.
func (s *Server) ShutdownRequested() <-chan leaf.ShutdownInfo { return s.shutdown }

// signalShutdown tells the owner the leaf is drained. It runs before the
// reply is written, so a client holding its reply finds the signal already
// raised; the owner reacts by calling Close, which in turn waits on replies
// so that reply is not cut off. Reports whether the caller owes a
// replies.Done.
func (s *Server) signalShutdown(info leaf.ShutdownInfo) bool {
	s.mu.Lock()
	counted := !s.closed
	if counted {
		s.replies.Add(1) // under mu and before closed is set, so before Close's Wait
	}
	s.mu.Unlock()
	select {
	case s.shutdown <- info:
	default:
	}
	return counted
}

func (s *Server) handle(req *Request) *Response {
	s.reg.Counter("rpc." + req.Kind.String()).Add(1)
	switch req.Kind {
	case KindPing:
		return &Response{}
	case KindAddBatch:
		return s.added(s.leaf.AddBatch(req.Table, req.Batch))
	case KindQuery:
		resp, err := s.query(req)
		if err != nil {
			s.reg.Counter("rpc.errors").Add(1)
			return &Response{Err: err.Error()}
		}
		return resp
	case KindStats:
		st := s.leaf.Stats()
		return &Response{Stats: &st}
	case KindShutdown:
		var info leaf.ShutdownInfo
		var err error
		if req.UseShm {
			info, err = s.leaf.Shutdown()
		} else {
			info, err = s.leaf.ShutdownToDisk()
		}
		if err != nil {
			return &Response{Err: err.Error()}
		}
		return &Response{Shutdown: &info}
	case KindFlush:
		if err := s.leaf.SealAll(); err != nil {
			s.reg.Counter("rpc.errors").Add(1)
			return &Response{Err: err.Error()}
		}
		if _, err := s.leaf.SyncToDisk(); err != nil {
			s.reg.Counter("rpc.errors").Add(1)
			return &Response{Err: err.Error()}
		}
		return &Response{}
	default:
		return &Response{Err: fmt.Sprintf("wire: unknown request kind %d", req.Kind)}
	}
}

// query answers a query request with its result frame.
func (s *Server) query(req *Request) (*Response, error) {
	if err := tooOld(req); err != nil {
		return nil, err
	}
	start := time.Now()
	res, exec, err := s.leaf.QueryShards(req.Query, req.Shards, req.Trace)
	if err != nil {
		return nil, err
	}
	s.reg.Timer("query.latency").Observe(time.Since(start))
	if req.Trace.TraceID == 0 {
		exec = nil // the report travels only on a traced request
	}
	frame, err := res.AppendFrame(nil)
	return &Response{Frame: frame, Exec: exec}, err
}

// tooOld refuses a query from a requester that cannot read the result
// frame, naming both versions: an empty reply would decode on its side as
// an answer with no groups.
func tooOld(req *Request) error {
	if req.Version < minQueryVersion {
		return fmt.Errorf("wire: a protocol %d requester sent a query; this server speaks protocol %d and answers queries from %d on", req.Version, ProtocolVersion, minQueryVersion)
	}
	return nil
}

// added answers an ingest request and counts its rows.
func (s *Server) added(rows int, err error) *Response {
	if err != nil {
		s.reg.Counter("rpc.errors").Add(1)
		return &Response{Err: err.Error()}
	}
	s.reg.Counter("rows.added").Add(int64(rows))
	return &Response{}
}

// The client's network bounds (see Client).
const (
	dialTimeout = 10 * time.Second      // connection establishment
	rpcTimeout  = 60 * time.Second      // one attempt's encode+decode
	maxRetries  = 3                     // retries after a transport error
	retryBase   = 25 * time.Millisecond // first backoff delay
	retryMax    = time.Second           // backoff cap
	maxIdle     = 2                     // healthy connections kept pooled
)

// Options configure a client.
type Options struct {
	// Metrics, when set, receives client-side retry counters: wire.retries
	// (every retried attempt) and wire.retry_exhausted (calls that failed
	// after the last retry). Retry storms during a rollover are invisible
	// in server-side counters — the server never saw the failed attempts.
	Metrics *metrics.Registry
}

// clientConn is one gob session. Encoders and decoders are stateful, so a
// connection is owned by exactly one in-flight call at a time.
type clientConn struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// Client talks to one leaf server. Safe for concurrent use: each in-flight
// call owns a pooled connection, so a slow RPC on one goroutine no longer
// serializes and starves concurrent callers. Every attempt runs under a
// deadline, and idempotent requests retry with capped exponential backoff
// plus jitter (leaves come and go across restarts).
type Client struct {
	addr string
	opts Options
	// The package constants unless a test shortens them.
	dialTimeout, rpcTimeout, retryMax time.Duration

	mu   sync.Mutex
	idle []*clientConn
}

// Dial creates a client with default Options; connections are established
// lazily.
func Dial(addr string) *Client { return DialOptions(addr, Options{}) }

// DialOptions is Dial with explicit Options.
func DialOptions(addr string, opts Options) *Client {
	return &Client{addr: addr, opts: opts, dialTimeout: dialTimeout, rpcTimeout: rpcTimeout, retryMax: retryMax}
}

// acquire pops a pooled connection or dials a new one under dialTimeout.
func (c *Client) acquire() (*clientConn, error) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		cc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()
	if err := fault.Inject(fault.SiteWireDial); err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		return nil, err
	}
	return &clientConn{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}, nil
}

// release returns a healthy connection to the pool (or closes it when the
// pool is full).
func (c *Client) release(cc *clientConn) {
	c.mu.Lock()
	if len(c.idle) < maxIdle {
		c.idle = append(c.idle, cc)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	cc.conn.Close()
}

// Call performs one RPC. Idempotent requests (ping, query, stats) are
// retried on transport errors with capped exponential backoff plus jitter —
// a stale connection to a leaf that restarted fails fast and the retry
// lands on the replacement process. Mutating requests are never retried: a
// timed-out AddRows may have been applied.
func (c *Client) Call(req *Request) (*Response, error) {
	if req.Version == 0 {
		req.Version = ProtocolVersion
	}
	retries := 0
	if idempotent(req.Kind) {
		retries = maxRetries
	}
	var resp *Response
	var err error
	for attempt := 0; ; attempt++ {
		resp, err = c.callOnce(req)
		if err == nil || attempt >= retries {
			break
		}
		if c.opts.Metrics != nil {
			c.opts.Metrics.Counter("wire.retries").Add(1)
		}
		time.Sleep(c.backoff(attempt))
	}
	if err != nil {
		if c.opts.Metrics != nil && retries > 0 {
			c.opts.Metrics.Counter("wire.retry_exhausted").Add(1)
		}
		return nil, err
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	return resp, nil
}

// backoff is the delay before retry attempt+1: retryBase doubled per
// attempt, capped at retryMax, with the upper half jittered so a thundering
// herd of clients retrying against one restarting leaf spreads out.
func (c *Client) backoff(attempt int) time.Duration {
	d := retryBase
	for i := 0; i < attempt && d < c.retryMax; i++ {
		d *= 2
	}
	d = min(d, c.retryMax)
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

func idempotent(k Kind) bool {
	// Status flips are absolute (not increments) and flushing twice is a
	// no-op, so retrying either is safe.
	return k == KindPing || k == KindQuery || k == KindStats ||
		k == KindLeafStatus || k == KindShardMap || k == KindFlush
}

// callOnce runs one attempt on its own connection under rpcTimeout. A
// transport error closes the connection; an application error (Response.Err)
// leaves it healthy and pooled.
func (c *Client) callOnce(req *Request) (*Response, error) {
	cc, err := c.acquire()
	if err != nil {
		return nil, err
	}
	if err := cc.conn.SetDeadline(time.Now().Add(c.rpcTimeout)); err != nil {
		cc.conn.Close()
		return nil, err
	}
	if err := fault.Inject(fault.SiteWireWrite); err != nil {
		cc.conn.Close()
		return nil, fmt.Errorf("wire: write to %s: %w", c.addr, err)
	}
	if err := cc.enc.Encode(req); err != nil {
		cc.conn.Close()
		return nil, err
	}
	if err := fault.Inject(fault.SiteWireRead); err != nil {
		cc.conn.Close()
		return nil, fmt.Errorf("wire: read from %s: %w", c.addr, err)
	}
	var resp Response
	if err := cc.dec.Decode(&resp); err != nil {
		cc.conn.Close()
		return nil, err
	}
	if err := cc.conn.SetDeadline(time.Time{}); err != nil {
		cc.conn.Close()
		return nil, err
	}
	c.release(cc)
	return &resp, nil
}

// Close drops all pooled connections. The client stays usable; the next
// call re-dials.
func (c *Client) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, cc := range idle {
		cc.conn.Close()
	}
	return nil
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.Call(&Request{Kind: KindPing})
	return err
}

// AddRows implements tailer.Target: the rows are transposed into one batch
// frame here and stay those bytes through the leaf's WAL.
func (c *Client) AddRows(table string, rows []rowblock.Row) error {
	b, err := rowblock.FromRows(rows)
	if err != nil {
		return err
	}
	_, err = c.Call(&Request{Kind: KindAddBatch, Table: table, Batch: b.AppendFrame(nil)})
	return err
}

// Stats implements tailer.Target.
func (c *Client) Stats() (leaf.Stats, error) {
	resp, err := c.Call(&Request{Kind: KindStats})
	if err != nil {
		return leaf.Stats{}, err
	}
	return *resp.Stats, nil
}

// Query is QueryShards over the whole table, untraced.
func (c *Client) Query(q *query.Query) (*query.Result, error) {
	res, _, err := c.QueryShards(q, nil, obs.TraceContext{})
	return res, err
}

// QueryTraced is QueryShards over the whole table.
func (c *Client) QueryTraced(q *query.Query, tc obs.TraceContext) (*query.Result, *obs.ExecStats, error) {
	return c.QueryShards(q, nil, tc)
}

// QueryShards implements aggregator.LeafTarget: the shard list and the trace
// context ride the request envelope (gob omits both when empty), the result
// frame and, on a traced request, the leaf's ExecStats ride the response. The span ID was stamped by the
// aggregator before the first attempt, so a retried RPC re-sends the same
// context and the trace never grows duplicate spans.
func (c *Client) QueryShards(q *query.Query, shards []int, tc obs.TraceContext) (*query.Result, *obs.ExecStats, error) {
	resp, err := c.Call(&Request{Kind: KindQuery, Query: q, Shards: shards, Trace: tc})
	if err != nil {
		return nil, nil, err
	}
	// What the peer sent is input: no frame, a frame that does not decode or
	// a result that is not q's answer is this target's error (the aggregator
	// counts it unanswered), and nothing but this check says the groups are
	// in order.
	if len(resp.Frame) == 0 {
		return nil, nil, fmt.Errorf("wire: %s answered without a result frame: peer speaks protocol < %d", c.addr, ProtocolVersion)
	}
	res, err := query.DecodeResultFrame(resp.Frame)
	if err == nil {
		err = res.Validate(q)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("wire: from %s: %w", c.addr, err)
	}
	res.SortGroups()
	return res, resp.Exec, nil
}

// Flush asks the leaf to seal its in-progress blocks and sync everything to
// the disk backup — after it returns, a kill -9 loses nothing the disk
// can't restore.
func (c *Client) Flush() error {
	_, err := c.Call(&Request{Kind: KindFlush})
	return err
}

// Shutdown asks the leaf to exit cleanly (through shared memory when
// useShm), returning the shutdown report.
func (c *Client) Shutdown(useShm bool) (leaf.ShutdownInfo, error) {
	resp, err := c.Call(&Request{Kind: KindShutdown, UseShm: useShm})
	if err != nil {
		return leaf.ShutdownInfo{}, err
	}
	return *resp.Shutdown, nil
}
