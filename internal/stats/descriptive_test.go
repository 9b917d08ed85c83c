package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, "mean", Mean(xs), 5, 1e-12)
	if Mean(nil) != 0 {
		t.Error("Mean of an empty slice should be 0")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = %v,%v want -1,7", lo, hi)
	}
	defer func() {
		if recover() == nil {
			t.Error("MinMax of empty slice did not panic")
		}
	}()
	MinMax(nil)
}

func TestPearsonCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	approx(t, "perfect positive", PearsonCorrelation(xs, ys), 1, 1e-12)
	neg := []float64{10, 8, 6, 4, 2}
	approx(t, "perfect negative", PearsonCorrelation(xs, neg), -1, 1e-12)
	if got := PearsonCorrelation(xs, []float64{3, 3, 3, 3, 3}); got != 0 {
		t.Errorf("correlation with constant = %v, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched lengths did not panic")
		}
	}()
	PearsonCorrelation(xs, ys[:3])
}

// Property: correlation is always within [-1, 1].
func TestCorrelationBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		n := len(raw) / 2
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			// Keep magnitudes bounded so the sums of squares cannot
			// overflow; overflow robustness is not part of the contract.
			xs[i] = math.Mod(raw[i], 1e6)
			ys[i] = math.Mod(raw[n+i], 1e6)
			if math.IsNaN(xs[i]) || math.IsNaN(ys[i]) {
				return true
			}
		}
		r := PearsonCorrelation(xs, ys)
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
