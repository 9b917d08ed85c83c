package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	cases := []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"single sample is every percentile", []float64{7}, 0.99, 7},
		{"median of an even count is the lower middle", []float64{4, 1, 3, 2}, 0.5, 2},
		{"median of an odd count", []float64{5, 1, 3}, 0.5, 3},
		{"p99 of 100 is the 99th", hundred, 0.99, 99},
		{"p100 is the maximum", hundred, 1, 100},
		{"q at or below 0 is the minimum", hundred, 0, 1},
		{"rank products that round up stay exact", hundred, 0.07, 7},
		{"p99 of 10 is the maximum", hundred[:10], 0.99, 100},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.q); got != c.want {
			t.Errorf("%s: percentile(q=%v) = %v, want %v", c.name, c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
	if hundred[0] != 100 {
		t.Errorf("percentile reordered its input")
	}
}

func TestWindowedPercentile(t *testing.T) {
	// Three windows of 1000 samples whose p99s are 990, 1990 and 2990: the
	// figure is their median, not the whole run's p99 (2970).
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := windowedPercentile(xs, 0.99); got != 1990 {
		t.Errorf("windowed p99 = %v, want 1990", got)
	}
	// Too few samples for a p99 with ten beyond it: the highest percentile
	// that keeps ten beyond, here p95 of 200.
	if got := windowedPercentile(xs[:200], 0.99); got != 190 {
		t.Errorf("p99 of 200 samples = %v, want 190", got)
	}
	// Below twenty samples only the median is left.
	if got := windowedPercentile([]float64{5, 1, 9}, 0.99); got != 5 {
		t.Errorf("p99 of 3 samples = %v, want the median 5", got)
	}
	// A slow spell over the first third of the phase leaves the median of
	// the twelve windows among the clean ones.
	slow := append([]float64(nil), xs...)
	for i := 0; i < 1000; i++ {
		slow[i] = 1e6
	}
	if got := windowedPercentile(slow, 0.5); got > 3000 {
		t.Errorf("windowed median = %v after a slow first third, want a clean window's", got)
	}
}
