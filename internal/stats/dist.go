// Package stats implements the statistical substrate FOCUS relies on:
// bootstrap estimation of null deviation distributions (the qualification
// procedure of Section 3.4), the Wilcoxon two-sample rank-sum test used by
// the sample-size study of Section 6, and descriptive helpers. Everything
// is implemented from scratch on the standard library.
package stats

import "math"

// NormalCDF returns P(Z <= z) for a standard normal variable Z.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}
