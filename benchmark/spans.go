package main

import (
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call (or call group) the benchmark made into a layer.
// Start and End are nanoseconds since the tracer was created.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // noParent for a root
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"` // router.lookup: Verdict.ServedBy
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const noParent = -1

// tracer is the traced run's in-memory span buffer. Only code in this
// directory fills it, around its own calls into the layers' public
// functions; it is written out once, when the run ends.
type tracer struct {
	workload string
	epoch    time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(name string, parent int32) int32 {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: now})
	return id
}

// end closes a span and returns its duration in nanoseconds.
func (t *tracer) end(id int32) int64 {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return now - t.spans[id].Start
}

// add records a span whose clock readings the caller already took.
func (t *tracer) add(name, class string, parent int32, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: int32(len(t.spans)), Parent: parent, Name: name, Class: class,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
}

// time runs f inside a span and returns the span's duration in seconds.
func (t *tracer) time(name string, parent int32, f func()) float64 {
	id := t.begin(name, parent)
	f()
	return float64(t.end(id)) / 1e9
}

// selfNS returns, per span name, the total self time: each span's duration
// minus the part of it its child spans cover.
func (t *tracer) selfNS() map[string]int64 {
	children := make(map[int32][]span)
	for _, s := range t.spans {
		if s.Parent != noParent {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range t.spans {
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += s.End - s.Start - covered
	}
	return self
}

// classDurations returns the durations of the named spans, grouped by class.
func (t *tracer) classDurations(name string) map[string][]int64 {
	out := make(map[string][]int64)
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Class] = append(out[s.Class], s.End-s.Start)
		}
	}
	return out
}

// dump writes the spans to dir/trace_<workload>.json.
func (t *tracer) dump(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{t.workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+t.workload+".json"), b, 0o644)
}
