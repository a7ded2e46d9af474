package wire

import (
	"bytes"
	"encoding/gob"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"scuba/internal/aggregator"
	"scuba/internal/obs"
	"scuba/internal/query"
	"scuba/internal/rowblock"
	"scuba/internal/table"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata")

// v1Request and v1Response are the pre-trace (protocol version 1) envelope
// shapes, reconstructed as local types. Gob matches struct fields by name,
// so these stand in exactly for frames produced by a v1 binary: no Version,
// no Trace, no Exec.
type v1Request struct {
	Kind   Kind
	Table  string
	Query  *query.Query
	UseShm bool
}

type v1Response struct {
	Err    string
	Result *v3Result
}

// v3Response is the envelope as a protocol 3 peer declares it; v3Result, the
// result inside it, is the mirror type the server's down-converter fills
// (v3compat.go). Gob flattens pointers and matches fields by name, so these
// stand in exactly for what an older peer encodes and what it decodes into.
type v3Response struct {
	Err    string
	Result *v3Result
	Exec   *obs.ExecStats
}

// rows finalizes an older peer's view of a result the way that peer would:
// its dense histograms as they are, its groups in whatever order they came.
func (r *v3Result) rows(q *query.Query) []query.Row { return r.result().Rows(q) }

// result is an older peer's view of a result as a Result, its groups sorted.
func (r *v3Result) result() *query.Result {
	res := &query.Result{}
	for _, g := range r.Groups {
		aggs := make([]query.AggState, len(g.Aggs))
		for i, st := range g.Aggs {
			aggs[i] = query.AggState{Count: st.Count, Sum: st.Sum, Min: st.Min, Max: st.Max, Distinct: st.Distinct}
			if st.Hist != nil {
				aggs[i].Hist = &query.Histogram{Counts: st.Hist.Counts[:]}
			}
		}
		res.Groups = append(res.Groups, query.Group{Key: g.Key, Aggs: aggs})
	}
	res.SortGroups()
	return res
}

// v1QueryRequest is the canonical v1 frame pinned by the golden fixture. It
// deliberately avoids maps (row columns, distinct sets) so the gob encoding
// is byte-deterministic.
func v1QueryRequest() *v1Request {
	return &v1Request{
		Kind:  KindQuery,
		Table: "events",
		Query: &query.Query{
			Table: "events",
			From:  1000,
			To:    2000,
			Aggregations: []query.Aggregation{
				{Op: query.AggCount},
				{Op: query.AggSum, Column: "lat"},
			},
			GroupBy: []string{"service"},
		},
	}
}

func v1QueryResponse() *v1Response {
	return &v1Response{
		Result: &v3Result{
			Groups: []v3Group{{
				Key:  []string{"web"},
				Aggs: []v3AggState{{Count: 500, Sum: 12345, Min: 1, Max: 99}},
			}},
			RowsScanned:   500,
			BlocksScanned: 2,
		},
	}
}

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// golden returns the pinned v1 frame bytes, regenerating them under
// -update. The comparison is decode-level, not byte-level: gob assigns type
// IDs from a process-global counter, so the same value encodes to different
// (equally valid, self-describing) bytes depending on what was encoded
// earlier in the process. What old binaries guarantee — and what the
// fixture pins — is that these exact captured bytes keep decoding.
func golden(t *testing.T, name string, canonical any) []byte {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, gobBytes(t, canonical), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestGoldenV1Frames proves a current binary still decodes pre-trace
// envelope bytes: the request's trace fields come back zero (the query runs
// untraced) and the response's Exec comes back nil — no error in either
// direction.
func TestGoldenV1Frames(t *testing.T) {
	reqRaw := golden(t, "frame-v1-request.golden", v1QueryRequest())
	respRaw := golden(t, "frame-v1-response.golden", v1QueryResponse())

	var req Request
	if err := gob.NewDecoder(bytes.NewReader(reqRaw)).Decode(&req); err != nil {
		t.Fatalf("decoding v1 request with current code: %v", err)
	}
	if req.Version != 0 || req.Trace.TraceID != 0 || req.Trace.SpanID != 0 {
		t.Fatalf("v1 request decoded with nonzero trace fields: %+v", req)
	}
	if req.Kind != KindQuery || req.Query == nil || req.Query.Table != "events" {
		t.Fatalf("v1 request payload mangled: %+v", req)
	}

	var resp Response
	if err := gob.NewDecoder(bytes.NewReader(respRaw)).Decode(&resp); err != nil {
		t.Fatalf("decoding v1 response with current code: %v", err)
	}
	if resp.Exec != nil {
		t.Fatalf("v1 response decoded with Exec = %+v, want nil", resp.Exec)
	}
	if resp.Result == nil || resp.Result.RowsScanned != 500 {
		t.Fatalf("v1 response payload mangled: %+v", resp)
	}

	// The fixture itself must round-trip through the v1 shapes unchanged —
	// a corrupted or regenerated-with-drift fixture fails here.
	var oldReq v1Request
	if err := gob.NewDecoder(bytes.NewReader(reqRaw)).Decode(&oldReq); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&oldReq, v1QueryRequest()) {
		t.Fatalf("fixture request = %+v, want %+v", &oldReq, v1QueryRequest())
	}
	var oldResp v1Response
	if err := gob.NewDecoder(bytes.NewReader(respRaw)).Decode(&oldResp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&oldResp, v1QueryResponse()) {
		t.Fatalf("fixture response = %+v, want %+v", &oldResp, v1QueryResponse())
	}
}

// TestV2FramesDecodeAsV1 proves the reverse direction: a v2 frame carrying
// trace context still decodes under the v1 struct shapes (gob skips unknown
// fields), so an old server simply ignores a new client's trace — the bump
// is additive, not a fork.
func TestV2FramesDecodeAsV1(t *testing.T) {
	req := &Request{Kind: KindQuery, Table: "events", Query: v1QueryRequest().Query}
	req.Version = ProtocolVersion
	req.Trace.TraceID, req.Trace.SpanID = 7, 8
	var old v1Request
	if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, req))).Decode(&old); err != nil {
		t.Fatalf("v1 shape rejecting v2 request: %v", err)
	}
	if old.Kind != KindQuery || old.Query == nil {
		t.Fatalf("v2 request lost payload under v1 shape: %+v", old)
	}
}

// TestShardFrameDecodesAsV1 extends the additive-envelope proof to the shard
// fields: a shard-scoped query frame and a leaf-status admin frame both
// decode under the v1 struct shapes without error, so the shard rollout can
// be mixed-version. (A v1 leaf would answer the whole logical table for a
// shard-scoped query — which is why shard routing requires shard-capable
// leaves — but the envelope itself never forks.)
func TestShardFrameDecodesAsV1(t *testing.T) {
	req := &Request{Kind: KindQuery, Query: v1QueryRequest().Query,
		Version: ProtocolVersion, Shards: []int{0, 3, 5}}
	var old v1Request
	if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, req))).Decode(&old); err != nil {
		t.Fatalf("v1 shape rejecting sharded request: %v", err)
	}
	if old.Kind != KindQuery || old.Query == nil {
		t.Fatalf("sharded request lost payload under v1 shape: %+v", old)
	}
	admin := &Request{Kind: KindLeafStatus, LeafName: "127.0.0.1:9", LeafStatus: 1, Version: ProtocolVersion}
	if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, admin))).Decode(&old); err != nil {
		t.Fatalf("v1 shape rejecting admin frame: %v", err)
	}
}

// TestOldClientAgainstNewServer drives a live server with raw v1 frames
// over TCP — exactly what a not-yet-upgraded aggregator does during a
// rolling restart — and expects a correct answer, untraced.
func TestOldClientAgainstNewServer(t *testing.T) {
	s, c, _ := newServer(t, 0)
	if err := c.AddRows("events", mkRows(500, 1000)); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	if err := enc.Encode(v1QueryRequest()); err != nil {
		t.Fatal(err)
	}
	var resp v1Response
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" {
		t.Fatalf("new server errored on v1 client: %s", resp.Err)
	}
	q := v1QueryRequest().Query
	rows := resp.Result.rows(q)
	if len(rows) != 1 || rows[0].Values[0] != 500 {
		t.Fatalf("v1 client got wrong result: %v", rows)
	}
}

// rawPeer serves answer's replies as raw gob frames: a peer built from
// whatever types the test says it was, or a broken one.
func rawPeer(t *testing.T, answer func(*Request) any) string {
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
			go func() {
				defer conn.Close()
				dec, enc := gob.NewDecoder(conn), gob.NewEncoder(conn)
				for {
					var req Request
					if dec.Decode(&req) != nil || enc.Encode(answer(&req)) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestNewServerAgainstOldClient: during a rollover old aggregators query new
// leaves and old clients new aggregators. A query that says Version 3 is
// answered, by the leaf server and by the aggregator server alike, in
// protocol 3's shape — it decodes under the v3 mirror types with nothing
// lost, every accumulator, the dense histograms and the trace report — and
// carries no frame the old peer would have no field for.
func TestNewServerAgainstOldClient(t *testing.T) {
	s, c, _ := newServer(t, 0)
	rows := mkRows(300, 1000)
	for i := range rows {
		rows[i].Cols["service"] = rowblock.StringValue([]string{"web", "ads", "search"}[i%3])
	}
	if err := c.AddRows("events", rows); err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggServer([]string{s.Addr()}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	q := &query.Query{Table: "events", From: 0, To: 1 << 40, TimeBucketSeconds: 100, GroupBy: []string{"service"},
		Aggregations: []query.Aggregation{{Op: query.AggCount}, {Op: query.AggP90, Column: "lat"}, {Op: query.AggCountDistinct, Column: "lat"}}}
	want, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	for name, addr := range map[string]string{"leaf server": s.Addr(), "aggregator server": agg.Addr()} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		req := &Request{Kind: KindQuery, Query: q, Version: 3}
		req.Trace.TraceID, req.Trace.SpanID = 5, 6
		if err := gob.NewEncoder(conn).Encode(req); err != nil {
			t.Fatal(err)
		}
		// Under the current shape first: the reply holds no frame.
		var raw Response
		if err := gob.NewDecoder(conn).Decode(&raw); err != nil {
			t.Fatal(err)
		}
		if len(raw.Frame) != 0 {
			t.Fatalf("%s sent a version 3 requester a %d-byte frame", name, len(raw.Frame))
		}
		var resp v3Response
		if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, &raw))).Decode(&resp); err != nil {
			t.Fatalf("%s: a reply to version 3 under the v3 shapes: %v", name, err)
		}
		if resp.Err != "" || resp.Result == nil || resp.Exec == nil || resp.Exec.SpanID != 6 {
			t.Fatalf("%s: v3 client got %+v", name, resp)
		}
		if got := resp.Result.rows(q); len(got) != 9 || !reflect.DeepEqual(got, want.Rows(q)) {
			t.Fatalf("%s: v3 client reads\n%+v, a current client\n%+v", name, got, want.Rows(q))
		}
		if resp.Result.RowsScanned != 300 || resp.Result.Phases.ScanNanos == 0 {
			t.Fatalf("%s: v3 client lost the work counters: %+v", name, resp.Result)
		}
		for _, g := range resp.Result.Groups {
			if h := g.Aggs[1].Hist; h == nil || h.Total != g.Aggs[1].Count || h.Total == 0 {
				t.Fatalf("%s: group %q: dense histogram %+v for %d values", name, g.Key, h, g.Aggs[1].Count)
			}
		}
	}
}

// TestMixedFleetMerge: through a rollover a leaf whose scan keeps only what
// each op reads answers beside leaves from before it, whose accumulators fill
// every field as Reference's do (a count's Min and Max, a percentile's Sum,
// Min and Max). Its fields an op does not read are at their identity, so a
// merge of the two, in either order, over the result frame or protocol 3's
// gob result, answers what one executor over both leaves' rows answers.
func TestMixedFleetMerge(t *testing.T) {
	var rows []rowblock.Row
	for i := 0; i < 600; i++ {
		rows = append(rows, rowblock.Row{Time: int64(1000 + i), Cols: map[string]rowblock.Value{
			"service": rowblock.StringValue([]string{"web", "ads", "search"}[i%3]),
			"host":    rowblock.StringValue(fmt.Sprintf("h%d", i%7)),
			"lat":     rowblock.Int64Value(int64(i * 37 % 1000)),
			"cpu":     rowblock.Float64Value(float64(i%40)/4 - 3),
		}})
	}
	q := &query.Query{Table: "events", From: 0, To: 1 << 40, TimeBucketSeconds: 200, GroupBy: []string{"service"},
		Aggregations: []query.Aggregation{{Op: query.AggCount}, {Op: query.AggSum, Column: "cpu"},
			{Op: query.AggAvg, Column: "lat"}, {Op: query.AggMin, Column: "cpu"}, {Op: query.AggMax, Column: "lat"},
			{Op: query.AggP50, Column: "lat"}, {Op: query.AggP99, Column: "cpu"}, {Op: query.AggCountDistinct, Column: "host"}}}
	want, err := query.Reference(rows, q)
	if err != nil {
		t.Fatal(err)
	}
	// The parent-shaped leaf holds the first rows, the per-op one the rest in
	// a sealed block and a tail; the bucket from 1200 is in both.
	parent, err := query.Reference(rows[:250], q)
	if err != nil {
		t.Fatal(err)
	}
	tbl := table.New("events", table.Options{})
	if err := tbl.AddRows(rows[250:450], 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SealActive(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddRows(rows[450:], 1); err != nil {
		t.Fatal(err)
	}
	perOp, err := query.Execute(tbl, q, query.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if full, per := parent.Groups[0].Aggs, perOp.Groups[0].Aggs; full[0].Max != 0 || full[5].Sum == 0 ||
		per[0].Max != math.Inf(-1) || per[5].Sum != 0 || per[5].Min != math.Inf(1) {
		t.Fatalf("not a mixed fleet: the parent's count and p50 %+v %+v, the per-op leaf's %+v %+v", full[0], full[5], per[0], per[5])
	}
	transports := map[string]func(*query.Result) *query.Result{
		"result frame": func(res *query.Result) *query.Result {
			frame, err := res.AppendFrame(nil)
			if err != nil {
				t.Fatal(err)
			}
			out, err := query.DecodeResultFrame(frame)
			if err != nil {
				t.Fatal(err)
			}
			return out
		},
		"protocol 3": func(res *query.Result) *query.Result {
			var back v3Result
			if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, v3ResultOf(res)))).Decode(&back); err != nil {
				t.Fatal(err)
			}
			return back.result()
		},
	}
	for name, via := range transports {
		for i, pair := range [][2]*query.Result{{parent, perOp}, {perOp, parent}} {
			merged := via(pair[0])
			merged.Merge(via(pair[1]))
			if got := merged.Rows(q); !reflect.DeepEqual(got, want.Rows(q)) {
				t.Fatalf("%s, order %d: merged\n%+v, reference\n%+v", name, i, got, want.Rows(q))
			}
		}
	}
}

// frameOf is the reply a protocol 4 peer sends for res.
func frameOf(t *testing.T, res *query.Result) *Response {
	t.Helper()
	frame, err := res.AppendFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	return &Response{Frame: frame}
}

// TestOldServerAgainstNewClient: a protocol 3 server ignores the version it is
// sent and replies with its gob result and no frame. A current client has no
// decoder for that: it says which peer is older, in words an operator can act
// on, and the aggregator counts that leaf unanswered — less coverage, never a
// wrong answer — and answers from the leaves that speak 4.
func TestOldServerAgainstNewClient(t *testing.T) {
	q := &query.Query{Table: "events", From: 0, To: 1 << 40, GroupBy: []string{"service"},
		Aggregations: []query.Aggregation{{Op: query.AggCount}}}
	var sent uint8
	old := Dial(rawPeer(t, func(req *Request) any {
		sent = req.Version
		return &v3Response{Result: &v3Result{RowsScanned: 17, Groups: []v3Group{
			{Key: []string{"web"}, Aggs: []v3AggState{{Count: 17}}},
		}}}
	}))
	defer old.Close()
	res, _, err := old.QueryShards(q, nil, obs.TraceContext{})
	if err == nil || !strings.Contains(err.Error(), "peer speaks protocol < 4") {
		t.Fatalf("a v3 reply read as %+v, %v", res, err)
	}
	if sent != ProtocolVersion || ProtocolVersion != 4 {
		t.Fatalf("the client said version %d, this build is %d", sent, ProtocolVersion)
	}

	_, cur, _ := newServer(t, 1)
	if err := cur.AddRows("events", mkRows(6, 1000)); err != nil {
		t.Fatal(err)
	}
	agg := aggregator.New([]aggregator.LeafTarget{old, cur})
	tracer, recorded := recordingTracer(obs.TracerOptions{})
	agg.Tracer = tracer
	merged, err := agg.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if merged.LeavesTotal != 2 || merged.LeavesAnswered != 1 || merged.Coverage() >= 1 {
		t.Fatalf("coverage %d/%d, want 1/2", merged.LeavesAnswered, merged.LeavesTotal)
	}
	if got := merged.Rows(q); len(got) != 1 || got[0].Values[0] != 6 {
		t.Fatalf("rows from the leaf that speaks 4: %+v", got)
	}
	// The reason is on the old leaf's span, word for word: what scuba-cli
	// trace and __system.traces show.
	traces := recorded()
	if len(traces) != 1 || !strings.Contains(traces[0][1].Err, "peer speaks protocol < 4") {
		t.Fatalf("the old leaf's span: %+v", traces)
	}
}

// TestReceivedGroupsAreSorted: nothing but the client's own check says a
// peer's groups are in key order with no key twice; whatever order they come
// in, what the client hands the merge keeps the merge's invariant.
func TestReceivedGroupsAreSorted(t *testing.T) {
	q := &query.Query{Table: "events", From: 0, To: 1 << 40, GroupBy: []string{"service", "host"},
		Aggregations: []query.Aggregation{{Op: query.AggCount}, {Op: query.AggSum, Column: "lat"}}}
	group := func(service, host string, count int64, sum float64) query.Group {
		return query.Group{Key: []string{service, host}, Aggs: []query.AggState{{Count: count}, {Count: count, Sum: sum}}}
	}
	reply := frameOf(t, &query.Result{RowsScanned: 17, Groups: []query.Group{
		group("web", "h2", 4, 40), group("ads", "h9", 1, 10), group("web", "h1", 2, 20),
		group("web", "h2", 8, 80), group("ads", "h1", 2, 20),
	}})
	c := Dial(rawPeer(t, func(*Request) any { return reply }))
	defer c.Close()
	res, _, err := c.QueryShards(q, nil, obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	if !strictlySorted(res.Groups) || res.RowsScanned != 17 {
		t.Fatalf("received groups not in key order: %+v", res.Groups)
	}
	want := []query.Row{
		{Key: []string{"web", "h2"}, Values: []float64{12, 120}},
		{Key: []string{"ads", "h1"}, Values: []float64{2, 20}},
		{Key: []string{"web", "h1"}, Values: []float64{2, 20}},
		{Key: []string{"ads", "h9"}, Values: []float64{1, 10}},
	}
	if got := res.Rows(q); !reflect.DeepEqual(got, want) {
		t.Fatalf("rows %+v, want %+v", got, want)
	}
}

// TestMalformedResultIsTheTargetsError: a reply that cannot be the query's
// answer — a percentile without its histogram, a time-bucketed group without
// its bucket, the wrong number of accumulators, a frame that does not decode,
// no answer at all — is an error from that target, not a panic in whoever
// finalizes the rows; the aggregator counts the leaf unanswered and answers
// from the rest.
func TestMalformedResultIsTheTargetsError(t *testing.T) {
	_, good, _ := newServer(t, 0)
	if err := good.AddRows("events", mkRows(50, 1000)); err != nil {
		t.Fatal(err)
	}
	one := func(key []string, aggs ...query.AggState) *Response {
		return frameOf(t, &query.Result{Groups: []query.Group{{Key: key, Aggs: aggs}}})
	}
	p99 := []query.Aggregation{{Op: query.AggP99, Column: "lat"}}
	count := []query.Aggregation{{Op: query.AggCount}}
	torn := one([]string{"web"}, query.AggState{Count: 3})
	torn.Frame = torn.Frame[:len(torn.Frame)-9]
	for _, tc := range []struct {
		name  string
		q     *query.Query
		reply *Response
	}{
		{"percentile without a histogram", &query.Query{Table: "events", To: 1 << 40, GroupBy: []string{"service"}, Aggregations: p99},
			one([]string{"web"}, query.AggState{Count: 3})},
		{"time bucket without its key", &query.Query{Table: "events", To: 1 << 40, TimeBucketSeconds: 3600, Aggregations: count},
			one(nil, query.AggState{Count: 3})},
		{"too few accumulators", &query.Query{Table: "events", To: 1 << 40, GroupBy: []string{"service"}, Aggregations: append(count, p99...)},
			one([]string{"web"}, query.AggState{Count: 3})},
		{"torn frame", &query.Query{Table: "events", To: 1 << 40, GroupBy: []string{"service"}, Aggregations: count}, torn},
		{"no result", &query.Query{Table: "events", To: 1 << 40, Aggregations: count}, &Response{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := Dial(rawPeer(t, func(*Request) any { return tc.reply }))
			defer bad.Close()
			if res, _, err := bad.QueryShards(tc.q, nil, obs.TraceContext{}); err == nil {
				t.Fatalf("accepted %+v", res)
			}
			res, err := aggregator.New([]aggregator.LeafTarget{good, bad}).Query(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			if res.LeavesTotal != 2 || res.LeavesAnswered != 1 {
				t.Fatalf("coverage %d/%d, want 1/2", res.LeavesAnswered, res.LeavesTotal)
			}
			if rows := res.Rows(tc.q); len(rows) != 1 {
				t.Fatalf("rows from the leaf that answered: %+v", rows)
			}
		})
	}
}

// v2AddRequest is the ingest request a protocol-2 tailer sends: rows under
// kind 2 (KindAddRows, as it was), gob-encoded, no Batch field.
type v2AddRequest struct {
	Kind    Kind
	Table   string
	Rows    []rowblock.Row
	Version uint8
}

// TestOldTailerIsRefused: protocol 4 dropped KindAddRows, the gob ingest a v2
// tailer sends (leaves upgraded before tailers a release ago, DESIGN.md §13).
// Its request still decodes — gob skips the Rows field this build no longer
// has — and is answered as any unknown kind is: an explicit error the tailer
// retries on, nothing ingested, nothing acked, the connection still good.
func TestOldTailerIsRefused(t *testing.T) {
	s, c, _ := newServer(t, 0)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	if err := enc.Encode(&v2AddRequest{Kind: 2, Table: "events", Rows: mkRows(40, 1000), Version: 2}); err != nil {
		t.Fatal(err)
	}
	var resp v1Response
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Err, "unknown request kind 2") {
		t.Fatalf("a v2 tailer's rows were answered %q, want an explicit refusal", resp.Err)
	}
	if err := enc.Encode(&v1Request{Kind: KindPing}); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("the connection after the refusal: %v", err)
	}
	if err := c.AddRows("events", mkRows(60, 2000)); err != nil {
		t.Fatal(err)
	}
	q := &query.Query{Table: "events", From: 0, To: 1 << 40, Aggregations: []query.Aggregation{{Op: query.AggCount}}}
	res, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if rows := res.Rows(q); len(rows) != 1 || rows[0].Values[0] != 60 {
		t.Fatalf("count = %v, want the 60 rows sent by frame", rows)
	}
	if got := s.Metrics().Counter("rows.added").Value(); got != 60 {
		t.Fatalf("rows.added = %d, want 60", got)
	}
}

// TestAddBatchIsAKindOfItsOwn pins why v3 ingest did not reuse kind 2: under
// a pre-v3 server's Request shape a frame-carrying request decodes with no
// rows at all, and only its unknown Kind stops that server from acking a
// batch it never saw (every server answers a kind it does not handle with an
// explicit error).
func TestAddBatchIsAKindOfItsOwn(t *testing.T) {
	if KindAddBatch != 10 || KindQuery != 3 {
		t.Fatalf("KindAddBatch = %d, KindQuery = %d; request kinds are wire constants: 10 is v3 ingest, 3 the query, and 2 stays taken", KindAddBatch, KindQuery)
	}
	req := &Request{Kind: KindAddBatch, Table: "events", Batch: []byte("frame"), Version: ProtocolVersion}
	var old v2AddRequest
	if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, req))).Decode(&old); err != nil {
		t.Fatalf("v2 shape rejecting a v3 ingest request: %v", err)
	}
	if old.Kind == 2 || len(old.Rows) != 0 {
		t.Fatalf("v3 ingest request reads as a v2 tailer's: %+v", old)
	}
	_, c, _ := newServer(t, 0)
	if _, err := c.Call(&Request{Kind: KindAddBatch + 1}); err == nil || !strings.Contains(err.Error(), "unknown request kind") {
		t.Fatalf("unknown kind: %v, want an explicit rejection", err)
	}
}

// TestOldScraperIsRefused: kind 9 was the cluster scraper's pull of a leaf's
// registry. A leaf's own sink now writes its facts, and a current leaf answers
// an older aggregator's scrape as any kind it does not handle — an error that
// aggregator counts, never a wrong row. The number stays taken
// (TestAddBatchIsAKindOfItsOwn pins the kinds after it).
func TestOldScraperIsRefused(t *testing.T) {
	_, c, _ := newServer(t, 0)
	if _, err := c.Call(&Request{Kind: 9}); err == nil || !strings.Contains(err.Error(), "unknown request kind 9") {
		t.Fatalf("kind 9: %v, want \"unknown request kind 9\"", err)
	}
}

// FuzzEnvelopeDecode throws arbitrary bytes at the request decoder — the
// server's first contact with the network — expecting errors, never panics.
func FuzzEnvelopeDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(gobBytesF(f, v1QueryRequest()))
	f.Add(gobBytesF(f, &Request{Kind: KindPing, Version: ProtocolVersion}))
	traced := &Request{Kind: KindQuery, Query: v1QueryRequest().Query, Version: ProtocolVersion}
	traced.Trace.TraceID, traced.Trace.SpanID = 1, 2
	f.Add(gobBytesF(f, traced))
	f.Add(gobBytesF(f, &Request{Kind: KindQuery, Query: v1QueryRequest().Query,
		Version: ProtocolVersion, Shards: []int{0, 1}}))
	f.Add(gobBytesF(f, &Request{Kind: KindLeafStatus, LeafName: "l", LeafStatus: 2, Version: ProtocolVersion}))
	f.Add(gobBytesF(f, &Request{Kind: KindAddBatch, Table: "events", Batch: []byte("SBF1"), Version: ProtocolVersion}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
			return
		}
		_ = req.Kind.String()
	})
}

func gobBytesF(f *testing.F, v any) []byte {
	f.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}
