package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the public function it calls. Spans of one operation (one
// simulation, one sampled Execute, one experiment render) share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a top-level (phase) span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is the span's duration minus the part of it that its child
	// spans cover (filled by finish).
	Self int64 `json:"self_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untimed code paths call it unconditionally; begin and end
// are safe for concurrent use from pool workers.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id and returns its duration (0 on a nil tracer).
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.dur())
}

// finish computes every span's self time and checks that the spans nest:
// each is closed, lies inside its parent, and keeps a non-negative self
// time. Children of one parent may overlap (pool workers); the covered
// part is their union.
func (t *tracer) finish() error {
	children := make(map[int][]*span)
	for i := range t.spans {
		s := &t.spans[i]
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) never closed", s.ID, s.Name)
		}
		if s.Parent != 0 {
			p := &t.spans[s.Parent-1]
			if s.Start < p.Start || s.End > p.End {
				return fmt.Errorf("span %d (%s) [%d,%d] escapes its parent %d (%s) [%d,%d]",
					s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
			}
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.dur() - covered(children[s.ID])
		if s.Self < 0 {
			return fmt.Errorf("span %d (%s) has negative self time %d ns", s.ID, s.Name, s.Self)
		}
	}
	return nil
}

// covered returns the length of the union of the spans' intervals.
func covered(ss []*span) int64 {
	if len(ss) == 0 {
		return 0
	}
	iv := make([][2]int64, len(ss))
	for i, s := range ss {
		iv[i] = [2]int64{s.Start, s.End}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// phaseSummary checks the attribution of one kind of top-level span
// ("setup" or "round"): it returns the summed durations of those spans
// and of their direct children. The direct children run one after
// another on the benchmark's goroutine, so the two sums differ only by
// loop overhead between calls.
func (t *tracer) phaseSummary(phase string) (total, children time.Duration) {
	top := make(map[int]bool)
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent == 0 && s.Name == phase {
			top[s.ID] = true
			total += time.Duration(s.dur())
		}
	}
	for i := range t.spans {
		if s := &t.spans[i]; top[s.Parent] {
			children += time.Duration(s.dur())
		}
	}
	return total, children
}

// selfByName sums self time per span name.
func (t *tracer) selfByName() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i := range t.spans {
		out[t.spans[i].Name] += time.Duration(t.spans[i].Self)
	}
	return out
}

// write stores the spans and the per-name self times as JSON.
func (t *tracer) write(path string) error {
	self := make(map[string]int64)
	for name, d := range t.selfByName() {
		self[name] = d.Nanoseconds()
	}
	data, err := json.MarshalIndent(struct {
		SelfNS map[string]int64 `json:"self_ns_by_name"`
		Spans  []span           `json:"spans"`
	}{self, t.spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
