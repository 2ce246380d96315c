package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one job or one
// fetch batch share Op; Parent is the id of the span that caused this one,
// 0 for the root.
type span struct {
	ID, Parent, Op int32
	Name           string
	Start, End     int64 // ns since the tracer's start
}

// tracer records spans in memory; nothing is written until the run ends.
// All methods are safe for concurrent use.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	stopped bool
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span that will have children and returns its id.
func (t *tracer) begin(name string, parent, op int32) int32 {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// end closes a span opened with begin.
func (t *tracer) end(id int32) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	if id > 0 {
		t.spans[id-1].End = now
	}
	t.mu.Unlock()
}

// add records a finished leaf span in one step.
func (t *tracer) add(name string, parent, op int32, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return
	}
	t.spans = append(t.spans, span{
		ID: int32(len(t.spans) + 1), Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
}

// stop ends recording and returns the spans. The decorators stay in place
// for the untimed verification that follows a timed region; what they see
// from then on is dropped.
func (t *tracer) stop() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stopped = true
	return t.spans
}

// traceFile is the on-disk form of one traced run. A run records several
// hundred thousand spans, so each is a row of six numbers: id, parent, op,
// index into Names, start and end in nanoseconds since the run's start.
type traceFile struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Names    []string   `json:"names"`
	Spans    [][6]int64 `json:"spans"`
}

func writeTrace(path, workload string, seed int64, spans []span) error {
	tf := traceFile{Workload: workload, Seed: seed, Spans: make([][6]int64, len(spans))}
	index := make(map[string]int64)
	for i, s := range spans {
		n, ok := index[s.Name]
		if !ok {
			n = int64(len(tf.Names))
			index[s.Name] = n
			tf.Names = append(tf.Names, s.Name)
		}
		tf.Spans[i] = [6]int64{int64(s.ID), int64(s.Parent), int64(s.Op), n, s.Start, s.End}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		_ = f.Close() // already failing; the encode error is the one to report
		return err
	}
	return f.Close()
}

// loadTrace reads a trace back and checks that every span's parent is in
// the file.
func loadTrace(path string) ([]span, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	spans := make([]span, len(tf.Spans))
	ids := make(map[int32]bool, len(tf.Spans))
	for i, r := range tf.Spans {
		if r[3] < 0 || r[3] >= int64(len(tf.Names)) {
			return nil, fmt.Errorf("%s: span %d has no name", path, r[0])
		}
		spans[i] = span{ID: int32(r[0]), Parent: int32(r[1]), Op: int32(r[2]), Name: tf.Names[r[3]], Start: r[4], End: r[5]}
		ids[spans[i].ID] = true
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			return nil, fmt.Errorf("%s: span %d (%s) names missing parent %d", path, s.ID, s.Name, s.Parent)
		}
	}
	return spans, nil
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover. Children may overlap one
// another (two reducers fetch at once) and may stick out of the parent;
// the covered part is the union of the children clipped to the parent.
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), p.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[p.ID] = p.End - p.Start - covered
	}
	return self
}

// spanTotal is the call count, duration and self time of the spans of one
// name.
type spanTotal struct {
	calls   int64
	seconds float64
	self    float64
}

func totalsByName(spans []span) map[string]spanTotal {
	self := selfTimes(spans)
	out := make(map[string]spanTotal)
	for _, s := range spans {
		t := out[s.Name]
		t.calls++
		t.seconds += float64(s.End-s.Start) / 1e9
		t.self += float64(self[s.ID]) / 1e9
		out[s.Name] = t
	}
	return out
}
