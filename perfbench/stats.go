package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted:
// the smallest value with at least p of the samples at or below it. It
// returns NaN for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the median of xs (the mean of the middle two for an even
// count), NaN for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns num/den, or 0 when den is 0 (a layer that saw no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// latencyPercentiles returns the p50 and p99 of ns latencies in µs.
func latencyPercentiles(ns []uint32) (p50, p99 float64) {
	us := make([]float64, len(ns))
	for i, v := range ns {
		us[i] = float64(v) / 1e3
	}
	slices.Sort(us)
	return percentile(us, 0.50), percentile(us, 0.99)
}
