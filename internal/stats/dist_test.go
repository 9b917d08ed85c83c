package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (tol %v)", name, got, want, tol)
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	approx(t, "Phi(0)", NormalCDF(0), 0.5, 1e-12)
	approx(t, "Phi(1.96)", NormalCDF(1.96), 0.9750021, 1e-6)
	approx(t, "Phi(-1.96)", NormalCDF(-1.96), 0.0249979, 1e-6)
	approx(t, "Phi(1)", NormalCDF(1), 0.8413447, 1e-6)
	approx(t, "Phi(2.5758)", NormalCDF(2.5758293), 0.995, 1e-6)
	approx(t, "Phi(-5)", NormalCDF(-5), 2.8665157e-7, 1e-10)
}

func TestNormalCDFSymmetry(t *testing.T) {
	f := func(z float64) bool {
		z = math.Mod(z, 10)
		if math.IsNaN(z) {
			return true
		}
		return math.Abs(NormalCDF(z)+NormalCDF(-z)-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
