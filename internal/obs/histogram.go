package obs

import (
	"math"
	"sort"
)

// Histogram is a fixed-bucket histogram over float64 observations.
// Buckets are cumulative-upper-bound ("le") style: an observation v
// lands in the first bucket whose bound satisfies v <= bound, with an
// implicit +Inf bucket at the end. Sum and Count are exact. Histograms
// are exposition buckets only (Registry renders them); quantiles come
// from NearestRank over the serving layer's bounded latency windows.
//
// Histogram is not goroutine-safe; the serving stack updates it under
// the server mutex.
type Histogram struct {
	bounds []float64 // ascending upper bounds
	counts []int64   // len(bounds)+1; last is the +Inf bucket
	count  int64
	sum    float64
}

// NewHistogram returns a histogram with the given ascending bucket
// upper bounds. The bounds slice is copied.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// DefaultLatencyBuckets covers simulated latencies from 1 microsecond
// to ~67 seconds in powers of four — wide enough for every bench
// workload.
func DefaultLatencyBuckets() []float64 {
	bounds := make([]float64, 0, 14)
	for v := 1e-6; v < 100; v *= 4 {
		bounds = append(bounds, v)
	}
	return bounds
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. v <= bound
	h.counts[i]++
	h.count++
	h.sum += v
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum reports the exact sum of observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Bounds returns the bucket upper bounds (not including +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// Counts returns the per-bucket counts, the last entry being the +Inf
// bucket.
func (h *Histogram) Counts() []int64 { return append([]int64(nil), h.counts...) }

// Merge adds o's observations into h. Both histograms must share the
// same bucket bounds.
func (h *Histogram) Merge(o *Histogram) {
	if len(h.bounds) != len(o.bounds) {
		panic("obs: merging histograms with different bucket layouts")
	}
	for i, b := range h.bounds {
		if o.bounds[i] != b {
			panic("obs: merging histograms with different bucket layouts")
		}
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.count += o.count
	h.sum += o.sum
}

// NearestRank is the exact sample percentile used by the serving
// layer's bounded latency windows and the bench's caller-side samples:
// the smallest value whose rank is at least ceil(p/100 * n). xs may be
// in any order and is not modified (a sorted copy is ranked); p is in
// [0, 100]. Empty input reports 0.
func NearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
