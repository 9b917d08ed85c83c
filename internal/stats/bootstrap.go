package stats

import (
	"math/rand"
	"sort"

	"focus/internal/parallel"
)

// DefaultBootstrapReplicates is the number of resample pairs drawn by the
// qualification procedure when the caller does not specify one.
const DefaultBootstrapReplicates = 99

// NullDistribution estimates the distribution F of deviation values under
// the null hypothesis that two datasets are generated by the same process
// (Section 3.4). draw must compute one deviation between a freshly
// resampled dataset pair; it is called b times with independent,
// deterministically seeded RNGs and must be safe for concurrent use.
// The returned values are sorted ascending.
func NullDistribution(b int, seed int64, draw func(rng *rand.Rand) float64) []float64 {
	return NullDistributionP(b, 0, seed, func() func(*rand.Rand) float64 { return draw })
}

// NullDistributionP is NullDistribution with a parallelism knob controlling
// the replicate worker count (0 = the process default, 1 = serial, n = n
// workers), and with worker-owned draw state: each worker calls newDraw
// once and runs all its replicates through the draw it returns, which need
// not be safe for concurrent use. The replicates are partitioned into
// static contiguous chunks — one per worker, no cross-worker handoff — and
// replicate i's generator depends only on (seed, i) and lands in slot i,
// so the distribution is identical for every worker count.
func NullDistributionP(b, parallelism int, seed int64, newDraw func() func(rng *rand.Rand) float64) []float64 {
	if b <= 0 {
		b = DefaultBootstrapReplicates
	}
	out := make([]float64, b)
	parallel.Do(b, parallelism, func(shard int, c parallel.Chunk) {
		draw := newDraw()
		for i := c.Lo; i < c.Hi; i++ {
			// Each replicate owns an independent generator so results do
			// not depend on scheduling.
			rng := rand.New(rand.NewSource(seed + int64(i)*0x9E3779B9 + 1))
			out[i] = draw(rng)
		}
	})
	sort.Float64s(out)
	return out
}

// Significance returns sig(d) as a percentage: the fraction of the null
// distribution that lies strictly below the observed deviation d. A value
// of 99 means d exceeds 99% of deviations expected between two datasets
// generated by the same process. null must be sorted ascending (as returned
// by NullDistribution).
func Significance(d float64, null []float64) float64 {
	if len(null) == 0 {
		return 0
	}
	below := sort.SearchFloat64s(null, d)
	return 100 * float64(below) / float64(len(null))
}
