package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The benchmark records its own spans around the calls it makes into each
// layer's public functions; nothing inside the program is instrumented. A
// nil *tracer (the untraced run) makes every call below a no-op, so traced
// and untraced runs execute the same workload code.

// spanRec is one recorded span. Times are nanoseconds since the tracer was
// created. Spans of one request or restart cycle share Trace.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Window marks a root that is one sample of an end-to-end metric; the
	// coverage rule applies to these.
	Window bool `json:"window,omitempty"`
}

type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	next  int64
	spans []spanRec
}

type span struct {
	t   *tracer
	rec spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) id() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// window opens a root span that is one sample of an end-to-end metric.
func (t *tracer) window(name string) *span {
	if t == nil {
		return nil
	}
	id := t.id()
	return &span{t: t, rec: spanRec{ID: id, Trace: id, Name: name, Start: int64(time.Since(t.t0)), Window: true}}
}

// root opens a root span that is not a sample of an end-to-end metric:
// background work and the per-layer probes.
func (t *tracer) root(name string) *span {
	s := t.window(name)
	if s != nil {
		s.rec.Window = false
	}
	return s
}

// child opens a span caused by s.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return &span{t: s.t, rec: spanRec{ID: s.t.id(), Parent: s.rec.ID, Trace: s.rec.Trace, Name: name, Start: int64(time.Since(s.t.t0))}}
}

// childAt records an already finished child span from two timestamps.
func (s *span) childAt(name string, start, end time.Time) {
	if s == nil {
		return
	}
	c := &span{t: s.t, rec: spanRec{ID: s.t.id(), Parent: s.rec.ID, Trace: s.rec.Trace, Name: name, Start: int64(start.Sub(s.t.t0))}}
	c.endAt(end)
}

func (s *span) end() {
	if s != nil {
		s.endAt(time.Now())
	}
}

func (s *span) endAt(at time.Time) {
	if s == nil {
		return
	}
	s.rec.End = int64(at.Sub(s.t.t0))
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.rec)
	s.t.mu.Unlock()
}

// windowAt records a finished window root whose children are given as
// consecutive named cut points: names[i] covers cuts[i]..cuts[i+1].
func (t *tracer) windowAt(name string, names []string, cuts []time.Time) {
	if t == nil || len(cuts) < 2 {
		return
	}
	w := t.window(name)
	w.rec.Start = int64(cuts[0].Sub(t.t0))
	for i, n := range names {
		if cuts[i+1].After(cuts[i]) {
			w.childAt(n, cuts[i], cuts[i+1])
		}
	}
	w.endAt(cuts[len(cuts)-1])
}

func (t *tracer) snapshot() []spanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.spans...)
}

// childCover returns, per span ID, the length of the part of the span's
// interval that its direct children cover (overlapping children count once).
func childCover(spans []spanRec) map[int64]int64 {
	byID := make(map[int64]spanRec, len(spans))
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[p.ID] = append(kids[p.ID], [2]int64{lo, hi})
		}
	}
	cover := make(map[int64]int64, len(kids))
	for id, iv := range kids {
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var total, end int64
		end = iv[0][0]
		for _, x := range iv {
			if x[1] <= end {
				continue
			}
			total += x[1] - max(x[0], end)
			end = x[1]
		}
		cover[id] = total
	}
	return cover
}

// layerTime is one span name's totals in a trace file's summary.
type layerTime struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	// SelfMs is duration minus the part child spans cover.
	SelfMs float64 `json:"self_ms"`
}

// summarize reduces spans to per-name totals and the coverage of the
// end-to-end windows: covered time over window time, 1 when there are no
// windows.
func summarize(spans []spanRec) (layers map[string]layerTime, coverage float64) {
	cover := childCover(spans)
	layers = make(map[string]layerTime)
	var winTotal, winCovered int64
	for _, s := range spans {
		d := s.End - s.Start
		l := layers[s.Name]
		l.Count++
		l.TotalMs += float64(d) / 1e6
		l.SelfMs += float64(d-cover[s.ID]) / 1e6
		layers[s.Name] = l
		if s.Window {
			winTotal += d
			winCovered += cover[s.ID]
		}
	}
	if winTotal == 0 {
		return layers, 1
	}
	return layers, float64(winCovered) / float64(winTotal)
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Seconds  int                  `json:"seconds"`
	Coverage float64              `json:"coverage"`
	Layers   map[string]layerTime `json:"layers"`
	Metrics  map[string]metricOut `json:"metrics"`
	Spans    []spanRec            `json:"spans"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
