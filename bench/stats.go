package main

import (
	"math"
	"sort"
)

// median returns the middle value of v (mean of the two middle values
// for an even count); 0 for an empty slice. v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return middle(s)
}

// middle is the median of an ascending, non-empty slice.
func middle(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// percentile returns the p-th percentile (0 < p < 100) of an ascending
// slice by the nearest-rank rule the repo's benchmarks already use
// (sorted[len·p/100]); 0 for an empty slice.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[len(sorted)*p/100]
}

// quartileSpread returns (Q3 − Q1) / median by the exclusive method of
// Python's statistics.quantiles(v, n=4), the spread the acceptance rule
// is stated in. It needs at least two values; fewer give 0.
func quartileSpread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
