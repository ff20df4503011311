package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mad is the median absolute deviation from the median.
func mad(xs []float64) float64 {
	m := median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return median(dev)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// highPercentile picks the highest of p99, p95, p90, p75 that still has
// at least ten samples beyond it, falling back to the maximum (reported
// as 100) when the sample is too small for any of them.
func highPercentile(xs []float64) (value, pct float64) {
	for _, p := range []float64{99, 95, 90, 75} {
		if float64(len(xs))*(100-p)/100 >= 10 {
			return percentile(xs, p), p
		}
	}
	return percentile(xs, 100), 100
}

// toMS converts seconds to milliseconds.
func toMS(secs []float64) []float64 {
	out := make([]float64, len(secs))
	for i, s := range secs {
		out[i] = s * 1e3
	}
	return out
}
