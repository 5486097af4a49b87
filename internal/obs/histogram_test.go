package obs

import (
	"math"
	"strings"
	"testing"
)

// equalCounts reports whether a histogram's per-bucket counts are
// exactly want (the last entry being the +Inf bucket).
func equalCounts(got, want []int64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("empty histogram: count %d sum %v", h.Count(), h.Sum())
	}
	if got := h.Counts(); !equalCounts(got, []int64{0, 0, 0, 0}) {
		t.Fatalf("empty histogram counts = %v, want four zero buckets", got)
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	h := NewHistogram([]float64{1e-4, 1e-3, 1e-2})
	const v = 3.7e-4
	h.Observe(v)
	if got := h.Counts(); !equalCounts(got, []int64{0, 1, 0, 0}) {
		t.Fatalf("%v landed in counts %v, want bucket le=1e-3", v, got)
	}
	if h.Count() != 1 || h.Sum() != v {
		t.Fatalf("single-observation stats: count %d sum %v", h.Count(), h.Sum())
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	// Observations landing exactly on bucket upper bounds count into
	// that bucket (le semantics); anything above the last bound goes to
	// the +Inf bucket.
	for i := 0; i < 10; i++ {
		h.Observe(2)
	}
	h.Observe(0.5)
	h.Observe(1)
	h.Observe(4)
	h.Observe(4.5)
	h.Observe(100)
	if got := h.Counts(); !equalCounts(got, []int64{2, 10, 1, 2}) {
		t.Fatalf("counts = %v, want [2 10 1 2]", got)
	}
	if got, want := h.Sum(), 20+0.5+1+4+4.5+100; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	if h.Count() != 15 {
		t.Fatalf("count = %d, want 15", h.Count())
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(DefaultLatencyBuckets())
	b := NewHistogram(DefaultLatencyBuckets())
	a.Observe(1e-5)
	a.Observe(2e-3)
	b.Observe(4e-2)
	b.Observe(1e3) // +Inf bucket
	want := a.Counts()
	for i, c := range b.Counts() {
		want[i] += c
	}
	a.Merge(b)
	if got := a.Counts(); !equalCounts(got, want) {
		t.Fatalf("merged counts = %v, want bucket-wise sum %v", got, want)
	}
	if a.Count() != 4 {
		t.Fatalf("merged count = %d, want 4", a.Count())
	}
	if got, want := a.Sum(), 1e-5+2e-3+4e-2+1e3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("merged sum = %v, want %v", got, want)
	}
	if b.Count() != 2 {
		t.Fatalf("merge modified its source: count %d", b.Count())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("merging different bucket layouts did not panic")
		}
	}()
	a.Merge(NewHistogram([]float64{1, 2}))
}

func TestNearestRankMatchesLegacyFormula(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{{0, 1}, {10, 1}, {50, 5}, {90, 9}, {99, 10}, {100, 10}}
	for _, c := range cases {
		if got := NearestRank(xs, c.p); got != c.want {
			t.Fatalf("NearestRank(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := NearestRank(nil, 50); got != 0 {
		t.Fatalf("NearestRank(empty) = %v, want 0", got)
	}
}

func TestRegistryRenderDeterministic(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		r.Counter("requests_total", nil, 96)
		r.Counter("requests_total", nil, 4) // accumulates
		r.Gauge("sim_makespan_seconds", nil, 0.25)
		r.Gauge("sim_makespan_seconds", nil, 0.125) // max wins
		h := NewHistogram([]float64{1, 2})
		h.Observe(0.5)
		h.Observe(3)
		r.Histogram("stage_seconds", L("stage", "execute", "priority", "normal"), h)
		r.Histogram("stage_seconds", L("stage", "execute", "priority", "normal"), h)
		return r.Render()
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("registry render not deterministic:\n%s\nvs\n%s", a, b)
	}
	want := "requests_total 100\n"
	if !contains(a, want) {
		t.Fatalf("render missing %q:\n%s", want, a)
	}
	if !contains(a, "sim_makespan_seconds 0.25\n") {
		t.Fatalf("gauge did not keep max:\n%s", a)
	}
	if !contains(a, `stage_seconds_count{priority="normal",stage="execute"} 4`) {
		t.Fatalf("histogram rows missing or labels unsorted:\n%s", a)
	}
	if !contains(a, `stage_seconds_bucket{priority="normal",stage="execute",le="+Inf"} 4`) {
		t.Fatalf("+Inf bucket row missing:\n%s", a)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
