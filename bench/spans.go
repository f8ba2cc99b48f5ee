package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// A span is one timed call from bench code into a layer of the
// system. Spans are recorded by the driver only (never from inside
// the program), kept in memory, and written out when the traced run
// ends.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"` // since the tracer's epoch
	EndNS    int64  `json:"end_ns"`

	tr *tracer
}

// tracer collects spans. A nil *tracer records nothing, so the timed
// (untraced) run and the traced run share one code path.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []*span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// start opens a span under parent (nil for a root). Safe on a nil
// tracer, in which case it returns a nil span.
func (t *tracer) start(name string, parent *span) *span {
	if t == nil {
		return nil
	}
	s := &span{Name: name, Workload: t.workload, tr: t, StartNS: time.Since(t.epoch).Nanoseconds()}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// end closes the span. Safe on a nil span.
func (s *span) end() {
	if s == nil {
		return
	}
	s.EndNS = time.Since(s.tr.epoch).Nanoseconds()
}

func (s *span) duration() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// leafCoverage returns the share of root's duration that the leaf
// spans below it cover. Bench code opens the spans of one tree from
// one goroutine, one after the other, so leaves never overlap.
func (t *tracer) leafCoverage(root *span) float64 {
	if t == nil || root == nil || root.duration() <= 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	under := map[int]bool{root.ID: true}
	parent := map[int]bool{}
	for _, s := range t.spans { // parents always precede their children
		if under[s.Parent] {
			under[s.ID] = true
			parent[s.Parent] = true
		}
	}
	var covered time.Duration
	for _, s := range t.spans {
		if under[s.ID] && !parent[s.ID] && s.ID != root.ID {
			covered += s.duration()
		}
	}
	return float64(covered) / float64(root.duration())
}

// write stores the spans as one JSON document. Call it after the
// last span has ended.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]*span(nil), t.spans...)
	t.mu.Unlock()
	buf, err := json.MarshalIndent(struct {
		Workload string  `json:"workload"`
		Spans    []*span `json:"spans"`
	}{t.workload, spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
