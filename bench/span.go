package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one demand
// round share its round id (0 outside a round); parent is the id
// of the span that caused this one, 0 at the root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Round   int    `json:"round"`
	StartNS int64  `json:"start_ns"` // since the tracer was created
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced run: every end-to-end number comes from
// one.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id, to be passed to end and used as the
// parent of the spans it causes.
func (t *tracer) start(name string, parent, round int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Round: round, StartNS: now, EndNS: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// finish computes self times and returns the spans; the tracer must not be
// used afterwards.
func (t *tracer) finish() []span {
	if t == nil {
		return nil
	}
	fillSelfTimes(t.spans)
	return t.spans
}

// fillSelfTimes sets each span's self time: its duration minus the part of
// its interval that its child spans cover. Children may overlap each other
// (the reader beside a round), so their intervals are merged first, and
// clipped to the parent's.
func fillSelfTimes(spans []span) {
	children := make(map[int][]int)
	for i := range spans {
		if p := spans[i].Parent; p > 0 {
			children[p] = append(children[p], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(spans[k].StartNS, reach), min(spans[k].EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.SelfNS = s.EndNS - s.StartNS - covered
	}
}

// selfByName sums self time per span name, in milliseconds.
func selfByName(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for i := range spans {
		out[spans[i].Name] += float64(spans[i].SelfNS) / 1e6
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
