package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample with at least ceil(q*n) samples at or below it. q <= 0
// gives the minimum; an empty xs gives NaN. xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps products such as 0.07*100 = 7.000000000000001 on
	// their exact rank.
	rank := int(math.Ceil(q*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank median.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
