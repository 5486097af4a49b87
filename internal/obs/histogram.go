package obs

import (
	"math"
	"sort"
)

// Histogram is a fixed-bucket histogram over float64 observations.
// Buckets are cumulative-upper-bound ("le") style: an observation v
// lands in the first bucket whose bound satisfies v <= bound, with an
// implicit +Inf bucket at the end. Sum and Count are exact; quantiles
// are estimated by linear interpolation inside the covering bucket and
// clamped to the observed [min, max], which makes the single-
// observation and every-value-on-a-boundary cases exact.
//
// Histogram is not goroutine-safe; the serving stack updates it under
// the server mutex.
type Histogram struct {
	bounds []float64 // ascending upper bounds
	counts []int64   // len(bounds)+1; last is the +Inf bucket
	count  int64
	sum    float64
	min    float64
	max    float64
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
	return &Histogram{
		bounds: b,
		counts: make([]int64, len(b)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// DefaultLatencyBuckets covers simulated latencies from 1 microsecond
// to ~67 seconds in powers of four — wide enough for every bench
// workload, narrow enough that interpolated percentiles track the
// sample percentiles on dense data.
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
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum reports the exact sum of observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Min reports the smallest observation, or 0 when empty.
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max reports the largest observation, or 0 when empty.
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

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
	if o.count > 0 {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
}

// Clone returns a deep copy.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.bounds = append([]float64(nil), h.bounds...)
	c.counts = append([]int64(nil), h.counts...)
	return &c
}

// Percentile estimates the p-th percentile (p in [0, 100]) using the
// nearest-rank rule over bucket counts with linear interpolation
// inside the covering bucket. An empty histogram reports 0; a single
// observation reports that observation exactly.
func (h *Histogram) Percentile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank > cum+c {
			cum += c
			continue
		}
		lo := h.min
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.max
		if i < len(h.bounds) && h.bounds[i] < hi {
			hi = h.bounds[i]
		}
		if lo < h.min {
			lo = h.min
		}
		if hi < lo {
			hi = lo
		}
		est := lo + (hi-lo)*float64(rank-cum)/float64(c)
		return est
	}
	return h.max
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
