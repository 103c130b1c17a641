package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds
// since the tracer was created; Parent is the index of the span that
// caused this one (-1 for a root); spans of one operation share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: begin and end do nothing, so the layer wrappers cost
// one nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// trace is the process-wide tracer, set once in main before any work
// starts and nil on an untraced run.
var trace *tracer

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// noParent marks a root span.
const noParent = -1

// begin opens a span and returns its index, or noParent when tracing is
// off.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return noParent
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// mark returns the number of spans recorded so far, so a caller can
// later ask for only the spans recorded after it.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since returns the durations of the named spans recorded after mark.
func (t *tracer) since(mark int, name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans[mark:] {
		if s.Name == name && s.End != 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// write dumps every span to path as one JSON array — called once, when
// the run ends.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
