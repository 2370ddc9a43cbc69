package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call made by the benchmark into a layer of the
// program. Spans are recorded only around the benchmark's own calls; the
// program itself is not instrumented.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay one nil check per call site.
type Tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// active is an open span; End closes and records it.
type active struct {
	tr *Tracer
	s  Span
}

// Start opens a span named name under parent (0 for a root). req ties the
// spans of one request together.
func (t *Tracer) Start(parent int64, name, req string) *active {
	if t == nil {
		return nil
	}
	return &active{tr: t, s: Span{
		ID: t.ids.Add(1), Parent: parent, Name: name, Req: req,
		Start: int64(time.Since(t.t0)),
	}}
}

// ID is the span's identifier, 0 for a disabled tracer.
func (a *active) ID() int64 {
	if a == nil {
		return 0
	}
	return a.s.ID
}

// End closes the span and returns its duration.
func (a *active) End() time.Duration {
	if a == nil {
		return 0
	}
	a.s.End = int64(time.Since(a.tr.t0))
	a.tr.mu.Lock()
	a.tr.spans = append(a.tr.spans, a.s)
	a.tr.mu.Unlock()
	return time.Duration(a.s.End - a.s.Start)
}

// Spans returns a copy of the spans recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the recorded spans and the run header as JSON.
func (t *Tracer) WriteFile(path string, header map[string]any) error {
	data, err := json.Marshal(struct {
		Header map[string]any `json:"header"`
		Spans  []Span         `json:"spans"`
	}{header, t.Spans()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LayerTime is the total and self time of every span with one name.
type LayerTime struct {
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes sums, per span name, each span's duration and its self time:
// the duration minus the part of it covered by its children. Children
// that overlap one another (concurrent calls under one parent) are
// counted once, and a child reaching outside its parent is clipped to it.
func selfTimes(spans []Span) map[string]LayerTime {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]LayerTime{}
	for _, s := range spans {
		dur := s.End - s.Start
		covered := coveredWithin(children[s.ID], s.Start, s.End)
		lt := out[s.Name]
		lt.Count++
		lt.Total += time.Duration(dur)
		lt.Self += time.Duration(dur - covered)
		out[s.Name] = lt
	}
	return out
}

// coveredWithin is the length of the union of ivs clipped to [lo, hi].
func coveredWithin(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var covered int64
	curLo, curHi := int64(0), int64(-1)
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			covered += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		covered += curHi - curLo
	}
	return covered
}
