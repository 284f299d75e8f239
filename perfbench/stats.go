package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-th percentile (q in (0,100]) of
// xs: the smallest sample with at least q% of the samples at or below it.
// xs need not be sorted; it is not modified. An empty slice yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rankOf(len(s), q)-1]
}

// median is the 50th nearest-rank percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// rankOf is the 1-based nearest rank of percentile q over n samples. The
// epsilon keeps binary rounding (99.9/100*10000 = 9990.000000000002)
// from pushing an exact rank up by one.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailLadder lists the percentiles a tail metric may report, highest
// first.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a tail percentile for it
// to count as measured rather than a single outlier.
const minBeyond = 10

// tail is a tail-latency figure with its provenance: the percentile
// reported, its value, the sample count, and how many samples lie above
// it.
type tail struct {
	Q      float64
	Value  float64
	N      int
	Beyond int
}

// tailOf picks the highest percentile of tailLadder with at least
// minBeyond samples strictly above its rank. With too few samples for
// any rung it falls back to the median, and Beyond says how thin it is.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sortedCopy(xs)
	for _, q := range tailLadder {
		r := rankOf(n, q)
		if n-r >= minBeyond {
			return tail{Q: q, Value: s[r-1], N: n, Beyond: n - r}
		}
	}
	r := rankOf(n, 50)
	return tail{Q: 50, Value: s[r-1], N: n, Beyond: n - r}
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
