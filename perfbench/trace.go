package main

// trace.go is the traced run's span recorder. The benchmark records a
// span around each of its own calls into a layer's public function; the
// program itself is not instrumented for this. Spans stay in memory and
// are written as JSONL once the run ends.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call. Spans of one operation (a request or a solve)
// share Op; Parent is the enclosing span's ID, or -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// StartNS and EndNS count from the recorder's creation.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// tracer records spans from one goroutine. A nil *tracer records
// nothing, so the untraced pass of a replay runs the same code.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its ID.
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name,
		StartNS: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].EndNS = int64(time.Since(t.epoch))
	}
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, op int, fn func()) {
	id := t.start(name, parent, op)
	fn()
	t.end(id)
}

// selfTimes returns each span name's total self time: its spans'
// durations minus the part of each interval its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.EndNS - s.StartNS - covered(s, children[s.ID]))
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total int64
	cur := parent.StartNS
	for _, k := range kids {
		lo, hi := max(k.StartNS, cur), min(k.EndNS, parent.EndNS)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// total is the summed duration of the spans named name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.EndNS - s.StartNS
		}
	}
	return time.Duration(d)
}

// writeJSONL writes every span, one JSON object a line, to path.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
