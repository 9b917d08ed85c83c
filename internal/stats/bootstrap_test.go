package stats

import (
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
)

func TestNullDistributionDeterministic(t *testing.T) {
	draw := func(rng *rand.Rand) float64 { return rng.Float64() }
	a := NullDistribution(50, 123, draw)
	b := NullDistribution(50, 123, draw)
	if len(a) != 50 {
		t.Fatalf("null size = %d, want 50", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("NullDistribution not deterministic for a fixed seed")
		}
	}
	c := NullDistribution(50, 124, draw)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical null distributions")
	}
}

func TestNullDistributionSorted(t *testing.T) {
	null := NullDistribution(200, 5, func(rng *rand.Rand) float64 { return rng.NormFloat64() })
	if !sort.Float64sAreSorted(null) {
		t.Error("null distribution not sorted")
	}
}

func TestNullDistributionDefaultReplicates(t *testing.T) {
	null := NullDistribution(0, 1, func(rng *rand.Rand) float64 { return 0 })
	if len(null) != DefaultBootstrapReplicates {
		t.Errorf("default replicates = %d, want %d", len(null), DefaultBootstrapReplicates)
	}
}

func TestSignificance(t *testing.T) {
	null := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		d    float64
		want float64
	}{
		{0.5, 0},    // below everything
		{10.5, 100}, // above everything
		{5.5, 50},   // above half
		{1, 0},      // ties are not "strictly below"
		{2.5, 20},
	}
	for _, c := range cases {
		if got := Significance(c.d, null); got != c.want {
			t.Errorf("Significance(%v) = %v, want %v", c.d, got, c.want)
		}
	}
	if got := Significance(1, nil); got != 0 {
		t.Errorf("Significance with empty null = %v, want 0", got)
	}
}

func TestNullDistributionParallelSafety(t *testing.T) {
	// Heavy concurrent draws must neither race (run with -race) nor lose
	// replicates.
	null := NullDistribution(500, 9, func(rng *rand.Rand) float64 {
		s := 0.0
		for i := 0; i < 100; i++ {
			s += rng.Float64()
		}
		return s
	})
	if len(null) != 500 {
		t.Fatalf("got %d replicates, want 500", len(null))
	}
	for _, v := range null {
		if v <= 0 || v >= 100 {
			t.Fatalf("replicate %v outside plausible range", v)
		}
	}
}

// TestNullDistributionWorkerOwnedDraws pins the worker-owned draw state of
// NullDistributionP: each worker builds its draw once and runs all its
// replicates through it, so a draw may keep unsynchronized scratch (run
// with -race), and the distribution is the same at every worker count.
func TestNullDistributionWorkerOwnedDraws(t *testing.T) {
	var want []float64
	for _, p := range []int{1, 2, 4} {
		var calls atomic.Int32
		null := NullDistributionP(23, p, 17, func() func(*rand.Rand) float64 {
			calls.Add(1)
			scratch := make([]float64, 0, 2) // reused without a lock
			return func(rng *rand.Rand) float64 {
				scratch = append(scratch[:0], rng.Float64(), rng.Float64())
				return scratch[0] + scratch[1]
			}
		})
		if n := calls.Load(); int(n) != p {
			t.Fatalf("parallelism %d: %d draws built, want one per worker", p, n)
		}
		if want == nil {
			want = null
			continue
		}
		for i := range want {
			if null[i] != want[i] {
				t.Fatalf("parallelism %d: null[%d] = %v, serial %v", p, i, null[i], want[i])
			}
		}
	}
}
