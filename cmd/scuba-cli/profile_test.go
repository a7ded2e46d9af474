package main

import (
	"strconv"
	"testing"
	"time"

	"scuba"
	"scuba/internal/aggregator"
	"scuba/internal/rowblock"
	"scuba/internal/wire"
)

// A capture's trace ID comes back whole: read as a float64 aggregate, an ID
// above 2^53 loses its low bits and `scuba-cli trace -id` cannot find it.
func TestProfileCaptureKeepsItsTraceID(t *testing.T) {
	l, err := scuba.NewLeaf(scuba.LeafConfig{
		Shm:      scuba.ShmOptions{Dir: t.TempDir(), Namespace: "profile"},
		DiskRoot: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	// 2^62+1 reads back as 2^62 through a float64; the second ID has the top
	// bit set, as a 64-bit trace ID can, and is stored as a negative int64.
	ids := []uint64{1<<62 + 1, 1<<63 + 12345}
	now := time.Now()
	var rows []scuba.Row
	for i, id := range ids {
		if uint64(float64(id)) == id {
			t.Fatalf("trace ID %d survives a float64: the test proves nothing", id)
		}
		at := now.Add(time.Duration(i-2) * time.Second)
		rows = append(rows, rowblock.Row{Time: at.Unix(), Cols: map[string]rowblock.Value{
			"source":   rowblock.StringValue("leaf:1"),
			"capture":  rowblock.StringValue(strconv.FormatInt(at.UnixMicro(), 10)),
			"t_us":     rowblock.Int64Value(at.UnixMicro()),
			"trigger":  rowblock.StringValue("slow_query"),
			"trace_id": rowblock.Int64Value(int64(id)),
			"detail":   rowblock.StringValue(""),
			"function": rowblock.StringValue(scuba.ProfileTotalFunction),
		}})
	}
	if err := l.AddRows(scuba.SystemProfilesTable, rows); err != nil {
		t.Fatal(err)
	}
	srv, err := wire.NewAggServerOver(aggregator.New([]aggregator.LeafTarget{l}), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := scuba.DialLeaf(srv.Addr())
	defer c.Close()
	caps, err := listCaptures(c, time.Minute, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(caps) != 2 || caps[0].TraceID != ids[1] || caps[1].TraceID != ids[0] {
		t.Fatalf("captures %+v, want trace IDs %d then %d (newest first)", caps, ids[1], ids[0])
	}
}
