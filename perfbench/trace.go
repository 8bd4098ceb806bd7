package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// side of the call. Spans of one run or job share Owner; Parent is the id
// of the enclosing span (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Owner  string `json:"owner"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name, owner string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Owner: owner, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// layerTime sums the durations and counts of the closed spans per name.
type layerTime struct {
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
	Self  time.Duration `json:"self_ns"`
}

func (l layerTime) meanUS() float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.Total) / 1e3 / float64(l.Count)
}

// layers aggregates the spans by name. A span's self time is its
// duration minus the union of its children's intervals.
func (t *tracer) layers() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		l := out[s.Name]
		l.Count++
		l.Total += s.dur()
		l.Self += s.dur() - covered(children[s.ID])
		out[s.Name] = l
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, curStart, curEnd int64
	open := false
	for _, s := range spans {
		switch {
		case !open:
			curStart, curEnd, open = s.Start, s.End, true
		case s.Start > curEnd:
			total += curEnd - curStart
			curStart, curEnd = s.Start, s.End
		case s.End > curEnd:
			curEnd = s.End
		}
	}
	if open {
		total += curEnd - curStart
	}
	return time.Duration(total)
}

// write dumps every span plus the per-name aggregation as JSON.
func (t *tracer) write(path string) error {
	layers := t.layers()
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Layers map[string]layerTime `json:"layers"`
		Spans  []span               `json:"spans"`
	}{layers, t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
