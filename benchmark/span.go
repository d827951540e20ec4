package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer was created; Parent is the id of the
// span that caused this one (0 = root), Op the operation (round, cell
// or request number) all spans of one operation share.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is the span's duration minus what its children cover; filled
	// in when the trace is written.
	Self int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time (offline workloads are single-threaded; the serve
// ladder replays one rung at a time).
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int, op int64) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: t.now()})
	return len(t.spans)
}

// end closes the span and returns its duration in nanoseconds.
func (t *tracer) end(id int) int64 {
	s := &t.spans[id-1]
	s.End = t.now()
	return s.End - s.Start
}

// add records an already measured interval.
func (t *tracer) add(name string, parent int, op int64, start, end int64) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return len(t.spans)
}

type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children
// cover. Children may overlap each other and may stick out of the
// parent: only the union of their intervals, clipped to the parent,
// is subtracted.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered int64
	cur := parent.start
	for _, c := range cs {
		if c.end <= cur {
			continue
		}
		if c.start > cur {
			cur = c.start
		}
		covered += c.end - cur
		cur = c.end
	}
	return parent.end - parent.start - covered
}

// finish computes every span's self time.
func (t *tracer) finish() {
	kids := make(map[int][]interval)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = selfTime(interval{s.Start, s.End}, kids[s.ID])
	}
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []span `json:"spans"`
	}{t.spans}); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
