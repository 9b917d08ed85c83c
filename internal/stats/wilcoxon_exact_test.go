package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// MaxExactWilcoxonN bounds m+n for the exact test; above it the DP table
// (O((m+n)^2 * m) entries) stops being worthwhile against the normal
// approximation.
const MaxExactWilcoxonN = 60

// WilcoxonRankSumExact performs the Wilcoxon two-sample test with the exact
// permutation null distribution of the rank-sum statistic, valid for small,
// tie-free samples (Bickel & Doksum, ch. 9 — the reference the paper cites
// for its Section 6 procedure). The null distribution is computed by
// dynamic programming: the number of ways to pick len(x) ranks out of
// 1..m+n with a given sum.
//
// It returns an error when the pooled sample has ties (the exact
// distribution below assumes distinct ranks) or exceeds MaxExactWilcoxonN
// observations. It is the test oracle for the normal approximation of
// WilcoxonRankSum, which every caller uses.
func WilcoxonRankSumExact(x, y []float64, alt Alternative) (WilcoxonResult, error) {
	m, n := len(x), len(y)
	if m == 0 || n == 0 {
		return WilcoxonResult{}, fmt.Errorf("stats: exact Wilcoxon requires two non-empty samples")
	}
	if m+n > MaxExactWilcoxonN {
		return WilcoxonResult{}, fmt.Errorf("stats: exact Wilcoxon limited to %d observations, got %d", MaxExactWilcoxonN, m+n)
	}
	seen := make(map[float64]bool, m+n)
	for _, v := range append(append([]float64{}, x...), y...) {
		if seen[v] {
			return WilcoxonResult{}, fmt.Errorf("stats: exact Wilcoxon requires tie-free samples (duplicate value %v)", v)
		}
		seen[v] = true
	}

	// Rank-sum of x in the pooled sample.
	w := 0
	for _, xv := range x {
		rank := 1
		for _, ov := range x {
			if ov < xv {
				rank++
			}
		}
		for _, ov := range y {
			if ov < xv {
				rank++
			}
		}
		w += rank
	}

	// counts[s] = number of size-m subsets of {1..N} with rank sum s.
	N := m + n
	maxSum := m * (2*N - m + 1) / 2
	minSum := m * (m + 1) / 2
	// dp[j][s]: ways to choose j ranks summing to s, filled rank by rank.
	dp := make([][]float64, m+1)
	for j := range dp {
		dp[j] = make([]float64, maxSum+1)
	}
	dp[0][0] = 1
	for r := 1; r <= N; r++ {
		for j := min(m, r); j >= 1; j-- {
			row, prev := dp[j], dp[j-1]
			for s := maxSum; s >= r; s-- {
				row[s] += prev[s-r]
			}
		}
	}
	counts := dp[m]
	total := 0.0
	for s := minSum; s <= maxSum; s++ {
		total += counts[s]
	}

	cdf := func(limit int) float64 { // P(W <= limit)
		if limit < minSum {
			return 0
		}
		if limit > maxSum {
			limit = maxSum
		}
		sum := 0.0
		for s := minSum; s <= limit; s++ {
			sum += counts[s]
		}
		return sum / total
	}
	upper := func(limit int) float64 { // P(W >= limit)
		if limit > maxSum {
			return 0
		}
		if limit < minSum {
			limit = minSum
		}
		sum := 0.0
		for s := limit; s <= maxSum; s++ {
			sum += counts[s]
		}
		return sum / total
	}

	res := WilcoxonResult{W: float64(w), U: float64(w - m*(m+1)/2)}
	switch alt {
	case Less:
		res.P = cdf(w)
	case Greater:
		res.P = upper(w)
	case TwoSided:
		p := 2 * math.Min(cdf(w), upper(w))
		if p > 1 {
			p = 1
		}
		res.P = p
	default:
		return WilcoxonResult{}, fmt.Errorf("stats: unknown alternative %v", alt)
	}
	res.Significance = 100 * (1 - res.P)
	if res.Significance < 0 {
		res.Significance = 0
	}
	// Report the normal-approximation z for reference.
	mean := float64(m) * float64(N+1) / 2
	sd := math.Sqrt(float64(m) * float64(n) * float64(N+1) / 12)
	if sd > 0 {
		res.Z = (float64(w) - mean) / sd
	}
	return res, nil
}

func TestWilcoxonExactSmallCase(t *testing.T) {
	// x = {1,2}, y = {3,4,5}: W = 3 is the unique minimum of C(5,2) = 10
	// equally likely rank subsets, so P(W <= 3) = 1/10.
	res, err := WilcoxonRankSumExact([]float64{1, 2}, []float64{3, 4, 5}, Less)
	if err != nil {
		t.Fatal(err)
	}
	if res.W != 3 {
		t.Errorf("W = %v, want 3", res.W)
	}
	if math.Abs(res.P-0.1) > 1e-12 {
		t.Errorf("P = %v, want 0.1", res.P)
	}
	// Greater direction: P(W >= 3) = 1.
	res, err = WilcoxonRankSumExact([]float64{1, 2}, []float64{3, 4, 5}, Greater)
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 1 {
		t.Errorf("P(greater) = %v, want 1", res.P)
	}
	// Two-sided doubles the smaller tail.
	res, err = WilcoxonRankSumExact([]float64{1, 2}, []float64{3, 4, 5}, TwoSided)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.P-0.2) > 1e-12 {
		t.Errorf("P(two-sided) = %v, want 0.2", res.P)
	}
}

func TestWilcoxonExactSymmetricMiddle(t *testing.T) {
	// Interleaved samples: W near its mean, two-sided p near 1.
	res, err := WilcoxonRankSumExact([]float64{1, 3, 5}, []float64{2, 4, 6}, TwoSided)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.5 {
		t.Errorf("interleaved samples P = %v, want large", res.P)
	}
}

func TestWilcoxonExactErrors(t *testing.T) {
	if _, err := WilcoxonRankSumExact(nil, []float64{1}, Less); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := WilcoxonRankSumExact([]float64{1, 2}, []float64{2, 3}, Less); err == nil {
		t.Error("tied samples accepted")
	}
	big := make([]float64, MaxExactWilcoxonN)
	for i := range big {
		big[i] = float64(i)
	}
	if _, err := WilcoxonRankSumExact(big, []float64{999}, Less); err == nil {
		t.Error("oversized samples accepted")
	}
}

// The exact test and the normal approximation must agree closely at
// moderate sizes.
func TestWilcoxonExactMatchesApproximation(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 10; trial++ {
		x := make([]float64, 12)
		y := make([]float64, 14)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64() + 0.5
		}
		exact, err := WilcoxonRankSumExact(x, y, Less)
		if err != nil {
			t.Fatal(err)
		}
		approx := WilcoxonRankSum(x, y, Less)
		if math.Abs(exact.P-approx.P) > 0.03 {
			t.Errorf("trial %d: exact P %v vs approx P %v", trial, exact.P, approx.P)
		}
	}
}

// The exact null is a proper distribution: sweeping W over its support
// accumulates probability 1 (checked through the CDF at the extremes).
func TestWilcoxonExactDistributionSane(t *testing.T) {
	// Max W for m=3, n=4: ranks {5,6,7} sum 18. P(W <= 18) must be 1.
	res, err := WilcoxonRankSumExact([]float64{8, 9, 10}, []float64{1, 2, 3, 4}, Less)
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 1 {
		t.Errorf("P at maximal W = %v, want 1", res.P)
	}
	if res.W != 5+6+7 {
		t.Errorf("W = %v, want 18", res.W)
	}
	// And the opposite tail is the single most extreme outcome: 1/C(7,3).
	res, err = WilcoxonRankSumExact([]float64{8, 9, 10}, []float64{1, 2, 3, 4}, Greater)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1.0 / 35; math.Abs(res.P-want) > 1e-12 {
		t.Errorf("P(greater) = %v, want %v", res.P, want)
	}
}
