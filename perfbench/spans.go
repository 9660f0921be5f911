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

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Items  uint64 `json:"items"`   // instructions or events the call processed
	Self   int64  `json:"self_ns"` // duration minus the part children cover
}

// tracer keeps the spans of a traced run in memory until write. A nil
// tracer records nothing, which is how untraced operations run.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int, items uint64) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Items = now, items
	return time.Duration(s.End - s.Start)
}

// newOp returns a fresh operation ID.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// computeSelf fills each span's self time: its duration minus the union
// of its children's intervals, clipped to the span.
func (t *tracer) computeSelf() {
	kids := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		var iv [][2]int64
		for _, k := range kids[s.ID] {
			lo, hi := max(t.spans[k].Start, s.Start), min(t.spans[k].End, s.End)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64
		for _, v := range iv {
			if v[0] < reach {
				v[0] = reach
			}
			if v[1] > v[0] {
				covered += v[1] - v[0]
				reach = v[1]
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// write stores the spans as JSON lines in dir/<name>.spans.jsonl, after
// a header line that records the environment.
func (t *tracer) write(dir, name, env string) (string, error) {
	t.computeSelf()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	path := filepath.Join(dir, name+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]string{"env": env})
	for _, s := range t.spans {
		if err != nil {
			break
		}
		err = enc.Encode(s)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}
