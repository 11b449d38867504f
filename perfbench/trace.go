package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call the benchmark made into a layer's public API.
// Spans of one request (a paper item, a design point, a service job)
// share Req; Parent links a span to the span that caused it (0 = root).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur returns the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing and reads no clock, so untraced runs pay only a nil check.
type Tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a tracer; span times are offsets from now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Open is a span that has started and not yet ended.
type Open struct {
	t     *Tracer
	id    int64
	req   int64
	par   int64
	name  string
	start int64
}

// Begin opens a span named name under parent (0 for a root) in request
// req.
func (t *Tracer) Begin(req, parent int64, name string) Open {
	if t == nil {
		return Open{}
	}
	return Open{t: t, id: t.ids.Add(1), req: req, par: parent, name: name,
		start: int64(time.Since(t.epoch))}
}

// ID is the span's id, for use as a child's parent.
func (o Open) ID() int64 { return o.id }

// End closes the span and records it.
func (o Open) End() {
	if o.t == nil {
		return
	}
	s := Span{ID: o.id, Parent: o.par, Req: o.req, Name: o.name,
		Start: o.start, End: int64(time.Since(o.t.epoch))}
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, s)
	o.t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in start order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// SelfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover (children may overlap when a
// layer fans out over workers). spans must be in start order, as Spans
// returns them. It also returns how many spans each name has.
func SelfTimes(spans []Span) (self map[string]time.Duration, count map[string]int) {
	kids := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self = make(map[string]time.Duration)
	count = make(map[string]int)
	for _, s := range spans {
		self[s.Name] += s.Dur() - covered(s, kids[s.ID])
		count[s.Name]++
	}
	return self, count
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's; kids are in start order.
func covered(parent Span, kids []Span) time.Duration {
	var total, lo, hi int64
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > hi {
			total += hi - lo
			lo, hi = s, e
		} else if e > hi {
			hi = e
		}
	}
	return time.Duration(total + hi - lo)
}

// Durations returns the durations of every span named name, in start
// order.
func Durations(spans []Span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.Dur())
		}
	}
	return out
}

// WriteFile writes the spans as one JSON document.
func (t *Tracer) WriteFile(path, workload string, seed int64) error {
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []Span `json:"spans"`
	}{workload, seed, t.Spans()}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing span file: %w", err)
	}
	return nil
}
