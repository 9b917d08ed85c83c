package stats

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

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
// not be safe for concurrent use. Workers take replicates one at a time
// from a shared next index, so a worker that finishes early takes more;
// replicate i's generator depends only on (seed, i) and lands in slot i,
// so the distribution is identical for every worker count.
func NullDistributionP(b, parallelism int, seed int64, newDraw func() func(rng *rand.Rand) float64) []float64 {
	null, _ := NullDistributionWith(b, parallelism, seed, nil, newDraw)
	return null
}

// NullDistributionWith is NullDistributionP with one more task, first, run
// ahead of the replicates on the same workers, so whatever the caller
// computes beside the null distribution shares the pool instead of
// preceding it. A nil first adds no task. first validates the inputs the
// draws resample: when it fails, the workers take no further replicates,
// a panic of a replicate already running is dropped, and its error is
// returned without a distribution. When it succeeds, a replicate's panic
// is raised again on the calling goroutine once every worker has stopped.
func NullDistributionWith(b, parallelism int, seed int64, first func() error, newDraw func() func(rng *rand.Rand) float64) ([]float64, error) {
	if b <= 0 {
		b = DefaultBootstrapReplicates
	}
	out := make([]float64, b)
	// Task 0 is first when there is one; task k is replicate k-skip.
	skip := 0
	if first != nil {
		skip = 1
	}
	tasks := b + skip
	replicate := func(draw func(*rand.Rand) float64, i int) {
		// Each replicate owns an independent generator so results do not
		// depend on scheduling.
		rng := rand.New(rand.NewSource(seed + int64(i)*0x9E3779B9 + 1))
		out[i] = draw(rng)
	}
	workers := min(parallel.Workers(parallelism), tasks)
	if workers == 1 {
		if first != nil {
			if err := first(); err != nil {
				return nil, err
			}
		}
		draw := newDraw()
		for i := range out {
			replicate(draw, i)
		}
		sort.Float64s(out)
		return out, nil
	}

	var (
		next     atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		firstErr = make([]error, 1)     // first's result
		panics   = make([]any, workers) // per worker, the first replicate panic
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			draw := newDraw()
			for !stop.Load() {
				k := int(next.Add(1) - 1)
				if k >= tasks {
					return
				}
				if k < skip {
					if err := first(); err != nil {
						firstErr[0] = err
						stop.Store(true)
					}
					continue
				}
				if p := recovered(func() { replicate(draw, k-skip) }); p != nil {
					panics[w] = p
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if firstErr[0] != nil {
		return nil, firstErr[0]
	}
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	sort.Float64s(out)
	return out, nil
}

// recovered runs fn and returns the value of its panic, or nil.
func recovered(fn func()) (p any) {
	defer func() { p = recover() }()
	fn()
	return nil
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
