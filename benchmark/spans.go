package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded by
// the benchmark around the call. Times are host nanoseconds since the
// recorder started. Parent is the index of the enclosing span, -1 for a
// root. Op groups the spans of one operation (compile, Run, request).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// recorder keeps spans in memory for one traced run. It is used from
// the load-generating goroutine only. A nil recorder records nothing,
// so call sites are identical in traced and untraced repetitions.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index, to close with end and to
// name as the parent of its children.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Op: op})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r != nil {
		r.spans[i].End = int64(time.Since(r.t0))
	}
}

// selfTimes returns each span's duration minus the part of its
// interval covered by its direct children. Overlapping children (the
// outstanding requests of a closed-loop window) are merged before
// subtracting, so coverage is never counted twice.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanSummary is one span name's totals in a trace file.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// traceFileSpans caps the spans written to a trace file; summaries
// always cover every recorded span.
const traceFileSpans = 20000

// durations returns the durations, in milliseconds, of the spans with
// the given name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// under returns the durations, in milliseconds, of the spans with the
// given name whose parent span has the given name.
func (r *recorder) under(parent, name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.Parent >= 0 && r.spans[s.Parent].Name == parent {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write stores the trace as JSON: per-name totals over every span, then
// the first traceFileSpans spans themselves.
func (r *recorder) write(path, workload string) error {
	self := selfTimes(r.spans)
	byName := make(map[string]*spanSummary)
	for i, s := range r.spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{}
			byName[s.Name] = sum
		}
		sum.Count++
		sum.TotalMs += float64(s.End-s.Start) / 1e6
		sum.SelfMs += float64(self[i]) / 1e6
	}
	data, err := json.Marshal(struct {
		Workload string                  `json:"workload"`
		Recorded int                     `json:"spans_recorded"`
		ByName   map[string]*spanSummary `json:"by_name"`
		Spans    []span                  `json:"spans"`
	}{workload, len(r.spans), byName, r.spans[:min(len(r.spans), traceFileSpans)]})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
