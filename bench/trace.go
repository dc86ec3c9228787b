package main

import "time"

// span is one traced call: the spans of one frame or request share id,
// and parent indexes the enclosing span in the same tracer (-1 for a
// root).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one goroutine in memory; they are written
// out when the run ends. A nil or switched-off tracer records nothing,
// so untraced code paths pay one branch per call.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// begin opens a span and returns its handle for end and for children.
func (t *tracer) begin(name string, parent int, id uint64) int {
	if t == nil || !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(h int) {
	if h >= 0 {
		t.spans[h].End = int64(time.Since(t.epoch))
	}
}

// layerTimes aggregates spans by name: total and per-span self time (a
// span's duration minus what its children cover).
type layerTimes map[string]*layerTime

type layerTime struct {
	self  time.Duration
	count int
	each  []float64 // per-span self time, ns
}

func (l *layerTime) p(q float64) time.Duration { return time.Duration(quantile(l.each, q)) }

// selfTimes computes per-layer self time over the spans of one tracer.
// Children of one parent never overlap: every tracer belongs to one
// goroutine.
func selfTimes(spans []span, into layerTimes) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		self := max(s.End-s.Start-child[i], 0)
		l := into[s.Name]
		if l == nil {
			l = &layerTime{}
			into[s.Name] = l
		}
		l.self += time.Duration(self)
		l.count++
		l.each = append(l.each, float64(self))
	}
}
