package main

import (
	"math"
	"sort"
)

// nearestRank returns the p-th percentile (0..100) of an ascending
// sample by the nearest-rank rule: the element at rank ceil(p/100*n).
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the nearest-rank position, from 1, of percentile p among n
// samples. The small slack keeps a product such as 0.999*10000, which
// floating point puts a hair above 9990, from rounding up a rank.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p/100*float64(n)-1e-9)), 1), n)
}

// tailLadder is the percentile ladder tail metrics fall back along.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// supportedPercentile returns the highest ladder percentile, at most
// want, that still has at least ten of the n samples beyond it. A
// percentile with fewer samples beyond it is set by a handful of
// outliers and does not repeat between runs. Never below the median.
func supportedPercentile(n int, want float64) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if p > want {
			break
		}
		if n-rank(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// tail is the value a host-clock "pNN" metric reports: the nearest-rank
// percentile at supportedPercentile(len, want).
func tail(sorted []float64, want float64) float64 {
	return nearestRank(sorted, supportedPercentile(len(sorted), want))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the mean of the two middle elements for even n, so a pair
// of repetitions is not represented by its slower one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	l := 0.0
	for _, x := range xs {
		l += math.Log(x)
	}
	return math.Exp(l / float64(len(xs)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
