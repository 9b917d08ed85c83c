package core

import (
	"errors"
	"math/rand"
	"sort"

	"focus/internal/apriori"
	"focus/internal/region"
	"focus/internal/stats"
)

// This file defines the generic ModelClass abstraction: the contract the
// paper requires of an instantiation of the framework (Section 2 — a model
// has a structural component and a measure component; Section 4 — two
// models of one class are compared over the greatest common refinement of
// their structural components). Everything the public pipelines do —
// Deviation, Qualify, RankRegions, and the incremental windowed monitor in
// internal/stream — is written once against this interface and the one
// streaming Window (window.go); the lits-, dt-
// and cluster-model classes are instantiations (class_lits.go,
// class_dt.go, class_cluster.go), and a new model class plugs into every
// pipeline by implementing ModelClass alone.

// ModelClass describes one instantiation of the FOCUS framework over
// datasets of type D inducing models of type M. Instances carry their
// induction parameters (minimum support, tree-growing configuration, grid
// and density threshold, ...), so a ModelClass value together with a
// dataset determines a model.
type ModelClass[D, M any] interface {
	// Name identifies the class ("lits", "dt", "cluster", ...).
	Name() string

	// Len returns the number of rows (transactions, tuples) of d.
	Len(d D) int
	// Concat pools two datasets; the bootstrap of Section 3.4 resamples
	// from the pool.
	Concat(d1, d2 D) (D, error)
	// Resample draws n rows from d with replacement.
	Resample(d D, n int, rng *rand.Rand) D

	// Induce induces a model of this class from d. parallelism shards any
	// dataset scans (0 = process default, 1 = serial); the model is
	// bit-identical for every setting.
	Induce(d D, parallelism int) (M, error)

	// MeasureGCR extends m1 and m2 to their greatest common refinement and
	// measures every refined region against d1 and d2 (one parallel,
	// shardable scan per dataset), honouring cfg's focus restriction and
	// parallelism. The returned regions are in a deterministic class-defined
	// order, so the f/g reduction over them is reproducible bit-for-bit.
	MeasureGCR(m1, m2 M, d1, d2 D, cfg *Config) ([]MeasuredRegion, error)

	// NewWindow returns an empty streaming window (Section 5.2 run
	// incrementally): the class builds it with the package's NewWindow
	// from a batch summary — the batch's count vector over the class's
	// cells — and an induce from the window's summed counts, so a window
	// advance never rescans retained batches. Classes without an
	// incremental form return an error.
	NewWindow(parallelism int) (*Window[D, M], error)

	// MeasureGCRWindows is MeasureGCR computed from two windows' summed
	// counts instead of raw dataset scans. m1 and m2 are the models
	// w1.Induce() and w2.Induce() returned for the windows as they are, so
	// a class may take measures from them instead of re-counting. The
	// regions must be bit-identical to MeasureGCR over the windows'
	// concatenated data.
	MeasureGCRWindows(m1, m2 M, w1, w2 *Window[D, M]) ([]MeasuredRegion, error)
}

// replicateFunc computes one bootstrap replicate's deviation: draw a
// resample pair of the given sizes from the pool (consuming exactly the
// RNG stream the generic Resample-based draw would), re-induce both
// models, measure their GCR, and reduce with f/g. A replicateFunc belongs
// to one bootstrap worker and need not be safe for concurrent use.
type replicateFunc func(rng *rand.Rand, n1, n2, blockN int, extension bool, f DiffFunc, g AggFunc) float64

// bootstrapper is an optional fast path a ModelClass may implement:
// newReplicate prepares the pool once and returns a factory that Qualify
// calls once per bootstrap worker, each replicateFunc owning its worker's
// scratch state and skipping the generic path's redundant work, or
// ok=false to keep the generic Resample/Induce/MeasureGCR path. Two
// classes implement it: lits mines exploded view pairs over the packed
// pool and reuses the mined supports for the GCR (class_lits.go); dt
// ranks the pool once and grows replicate trees over their distinct drawn
// rows on per-worker builders, counting the GCR from the builds
// (class_dt.go). The replicate values must be bit-identical to the
// generic path — same RNG consumption, same integer counts, same float64
// reduction.
type bootstrapper[D any] interface {
	newReplicate(pool D, cfg *Config) (func() replicateFunc, bool)
}

// Config is the one options struct of the unified pipeline, assembled from
// functional options (WithParallelism, WithFocus, ...). Its zero value is
// ready to use.
type Config struct {
	// F is the difference function of a monitor emission (default
	// AbsoluteDiff). The batch pipelines take f positionally.
	F DiffFunc
	// G is the aggregate function of a monitor emission (default Sum).
	G AggFunc

	// Parallelism shards dataset scans and bootstrap replicates across
	// workers: 0 uses the process default (GOMAXPROCS unless overridden via
	// SetDefault / a -parallelism flag), 1 forces the exact serial path,
	// n >= 2 uses n workers. Results are bit-identical for every setting.
	Parallelism int

	// FocusRegion, when non-nil, restricts dt-model deviations to the given
	// region (Definition 5.2). Ignored by classes without box regions.
	FocusRegion *region.Box
	// FocusItemsets, when non-nil, keeps only the GCR itemsets for which it
	// returns true (the Section 5 predicate operator in the lits domain).
	// Ignored by classes without itemset regions.
	FocusItemsets func(apriori.Itemset) bool

	// Replicates is the bootstrap replicate count of Qualify (default
	// stats.DefaultBootstrapReplicates).
	Replicates int
	// Seed makes the bootstrap deterministic.
	Seed int64
	// Extension declares that d2 extends d1 in Qualify — the monitoring
	// setting of Section 7 where D2 = D1 + Δ; the null preserves that
	// dependence. Requires |D2| >= |D1|.
	Extension bool

	// WindowBatches is the number of batches a count-based monitor window
	// holds (>= 1 unless EpochWindow selects epoch-based expiry).
	WindowBatches int
	// Tumbling makes the count-based window tumble instead of slide.
	Tumbling bool
	// EpochWindow, when > 0, selects epoch-based expiry: the window keeps
	// the batches whose epoch lies in (current-EpochWindow, current].
	EpochWindow int64
	// PreviousWindow compares each monitor window against the previous
	// window instead of the pinned reference.
	PreviousWindow bool

	// Threshold, when > 0, marks monitor reports at or above it as alerts.
	Threshold float64
	// OnAlert, when non-nil, is invoked synchronously for every alerting
	// report.
	OnAlert func(Report)
	// Qualify bootstraps the significance of every monitor emission.
	Qualify bool
}

// Option mutates a Config; the With* constructors are the vocabulary of the
// unified pipeline.
type Option func(*Config)

// NewConfig applies opts to a zero Config.
func NewConfig(opts ...Option) Config {
	var cfg Config
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return cfg
}

// WithConfig replaces the whole configuration at once, for callers that
// already hold an assembled Config.
func WithConfig(c Config) Option { return func(dst *Config) { *dst = c } }

// WithParallelism selects the worker count (0 = process default, 1 =
// serial).
func WithParallelism(n int) Option { return func(c *Config) { c.Parallelism = n } }

// WithFocus restricts the deviation to a box region (Definition 5.2).
func WithFocus(b *region.Box) Option { return func(c *Config) { c.FocusRegion = b } }

// WithFocusItemsets keeps only the GCR itemsets for which keep returns
// true.
func WithFocusItemsets(keep func(apriori.Itemset) bool) Option {
	return func(c *Config) { c.FocusItemsets = keep }
}

// WithReplicates sets the bootstrap replicate count.
func WithReplicates(n int) Option { return func(c *Config) { c.Replicates = n } }

// WithSeed makes the bootstrap deterministic.
func WithSeed(s int64) Option { return func(c *Config) { c.Seed = s } }

// WithExtension declares that d2 extends d1 (Section 7 monitoring nulls).
func WithExtension() Option { return func(c *Config) { c.Extension = true } }

// WithWindow sets the count-based window size of a monitor.
func WithWindow(batches int) Option { return func(c *Config) { c.WindowBatches = batches } }

// WithTumbling makes the monitor window tumble instead of slide.
func WithTumbling() Option { return func(c *Config) { c.Tumbling = true } }

// WithEpochWindow selects epoch-based window expiry.
func WithEpochWindow(w int64) Option { return func(c *Config) { c.EpochWindow = w } }

// WithPreviousWindow compares monitor windows against the previous window.
func WithPreviousWindow() Option { return func(c *Config) { c.PreviousWindow = true } }

// WithFunctions sets the monitor's difference and aggregate functions.
func WithFunctions(f DiffFunc, g AggFunc) Option {
	return func(c *Config) { c.F, c.G = f, g }
}

// WithThreshold marks monitor reports at or above t as alerts.
func WithThreshold(t float64) Option { return func(c *Config) { c.Threshold = t } }

// WithAlert installs the alert callback of a monitor.
func WithAlert(fn func(Report)) Option { return func(c *Config) { c.OnAlert = fn } }

// WithQualification bootstraps the significance of every monitor emission.
func WithQualification() Option { return func(c *Config) { c.Qualify = true } }

// Report is one emission of a monitor: the deviation of the current window
// against the reference after a window advance.
type Report struct {
	// Seq is the 0-based emission index.
	Seq int
	// Epoch is the epoch of the most recent batch.
	Epoch int64
	// Batches is the number of batches in the window.
	Batches int
	// N is the number of rows in the window.
	N int
	// RefN is the number of rows on the reference side.
	RefN int
	// Regions is the number of GCR regions compared.
	Regions int
	// Deviation is delta(f,g) between the reference and the window.
	Deviation float64
	// Alert reports whether Deviation reached Config.Threshold.
	Alert bool
	// Qual carries the bootstrap qualification when Config.Qualify is set
	// (Qual.Deviation equals Deviation).
	Qual *Qualification
}

// Deviation computes delta(f,g) between d1 and d2 through two models of one
// class (Definition 3.6): both models are extended to their GCR, every
// refined region is measured against both datasets, and the per-region
// differences are aggregated. It is the single deviation pipeline every
// model class flows through.
func Deviation[D, M any](mc ModelClass[D, M], m1, m2 M, d1, d2 D, f DiffFunc, g AggFunc, opts ...Option) (float64, error) {
	cfg := NewConfig(opts...)
	regions, err := mc.MeasureGCR(m1, m2, d1, d2, &cfg)
	if err != nil {
		return 0, err
	}
	return Deviation1(regions, float64(mc.Len(d1)), float64(mc.Len(d2)), f, g), nil
}

// RankedGCRRegion is one row of RankRegions: a region of the GCR of the two
// models (identified by its index in the class's deterministic GCR order),
// its absolute measures in both datasets, and its single-region deviation.
type RankedGCRRegion struct {
	// Index is the region's position in the class's GCR region order.
	Index int
	// Alpha1 and Alpha2 are the absolute measures of the region.
	Alpha1, Alpha2 float64
	// Deviation is f(alpha1, alpha2, |D1|, |D2|).
	Deviation float64
}

// RankRegions is the rank operator of Section 5 over the GCR of two models
// of any class: every refined region is measured against both datasets and
// the regions are ordered by decreasing single-region deviation (ties
// preserve the GCR order). It generalizes RankItemsets / Rank to every
// model class.
func RankRegions[D, M any](mc ModelClass[D, M], m1, m2 M, d1, d2 D, f DiffFunc, opts ...Option) ([]RankedGCRRegion, error) {
	cfg := NewConfig(opts...)
	regions, err := mc.MeasureGCR(m1, m2, d1, d2, &cfg)
	if err != nil {
		return nil, err
	}
	n1, n2 := float64(mc.Len(d1)), float64(mc.Len(d2))
	out := make([]RankedGCRRegion, len(regions))
	for i, r := range regions {
		out[i] = RankedGCRRegion{
			Index:     i,
			Alpha1:    r.Alpha1,
			Alpha2:    r.Alpha2,
			Deviation: f(r.Alpha1, r.Alpha2, n1, n2),
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Deviation > out[j].Deviation })
	return out, nil
}

// Qualify computes the deviation delta(f,g) between d1 and d2 through
// freshly induced models of the class and its bootstrap significance
// (Section 3.4): the datasets are pooled, resample pairs of the original
// sizes re-induce models and recompute the deviation, and sig(d) is the
// percentage of that null distribution below the observed deviation. It is
// the single qualification pipeline for every model class.
//
// The observed deviation is the first task of the bootstrap's worker pool,
// computed at parallelism 1 like every replicate (a deviation does not
// depend on the worker count), so one worker computes it while the others
// start on the replicates.
func Qualify[D, M any](mc ModelClass[D, M], d1, d2 D, f DiffFunc, g AggFunc, opts ...Option) (Qualification, error) {
	cfg := NewConfig(opts...)
	if mc.Len(d1) == 0 || mc.Len(d2) == 0 {
		return Qualification{}, errEmptyQualify
	}
	newDraw, err := nullDraws(mc, d1, d2, f, g, &cfg)
	if err != nil {
		// The observed path's errors take precedence over the pool's.
		if _, oerr := observedDeviation(mc, d1, d2, f, g, &cfg); oerr != nil {
			return Qualification{}, oerr
		}
		return Qualification{}, err
	}
	serial := cfg
	serial.Parallelism = 1
	observed := make([]float64, 1) // the first task's result
	null, err := stats.NullDistributionWith(cfg.Replicates, cfg.Parallelism, cfg.Seed, func() error {
		var err error
		observed[0], err = observedDeviation(mc, d1, d2, f, g, &serial)
		return err
	}, newDraw)
	if err != nil {
		return Qualification{}, err
	}
	return qualification(observed[0], null), nil
}

var errEmptyQualify = errors.New("core: qualification requires non-empty datasets")

// observedDeviation induces a model of each dataset and returns their
// deviation delta(f,g).
func observedDeviation[D, M any](mc ModelClass[D, M], d1, d2 D, f DiffFunc, g AggFunc, cfg *Config) (float64, error) {
	m1, err := mc.Induce(d1, cfg.Parallelism)
	if err != nil {
		return 0, err
	}
	m2, err := mc.Induce(d2, cfg.Parallelism)
	if err != nil {
		return 0, err
	}
	regions, err := mc.MeasureGCR(m1, m2, d1, d2, cfg)
	if err != nil {
		return 0, err
	}
	return Deviation1(regions, float64(mc.Len(d1)), float64(mc.Len(d2)), f, g), nil
}

// QualifyObserved is Qualify for a caller that already holds the observed
// deviation delta(f,g) between d1 and d2 — a streaming monitor measures it
// from its windows' summaries — so only the pool and the bootstrap null
// are computed. Given Qualify's observed deviation, the result is
// bit-identical to Qualify's.
func QualifyObserved[D, M any](mc ModelClass[D, M], d1, d2 D, observed float64, f DiffFunc, g AggFunc, opts ...Option) (Qualification, error) {
	cfg := NewConfig(opts...)
	if mc.Len(d1) == 0 || mc.Len(d2) == 0 {
		return Qualification{}, errEmptyQualify
	}
	newDraw, err := nullDraws(mc, d1, d2, f, g, &cfg)
	if err != nil {
		return Qualification{}, err
	}
	null := stats.NullDistributionP(cfg.Replicates, cfg.Parallelism, cfg.Seed, newDraw)
	return qualification(observed, null), nil
}

// qualification places the observed deviation in its null distribution.
func qualification(observed float64, null []float64) Qualification {
	return Qualification{
		Deviation:    observed,
		Significance: stats.Significance(observed, null),
		Null:         null,
	}
}

// nullDraws pools d1 and d2 and returns the bootstrap's per-worker draw
// factory: each draw resamples a dataset pair of the original sizes from
// the pool (or, in Extension mode, D1 and D1 + Delta) and returns their
// deviation.
func nullDraws[D, M any](mc ModelClass[D, M], d1, d2 D, f DiffFunc, g AggFunc, cfg *Config) (func() func(*rand.Rand) float64, error) {
	n1, n2 := mc.Len(d1), mc.Len(d2)
	pool, err := mc.Concat(d1, d2)
	if err != nil {
		return nil, err
	}
	blockN := 0
	if cfg.Extension {
		if n2 < n1 {
			return nil, errors.New("core: Extension qualification requires |D2| >= |D1|")
		}
		blockN = n2 - n1
	}
	serial := *cfg
	serial.Parallelism = 1
	draw := func(rng *rand.Rand) float64 {
		// The draw closure runs on concurrent workers: every variable
		// assigned here must be local to the closure. Errors panic —
		// resamples of the validated inputs cannot fail where the observed
		// computation succeeded.
		r1 := mc.Resample(pool, n1, rng)
		var r2 D
		if cfg.Extension {
			var cerr error
			r2, cerr = mc.Concat(r1, mc.Resample(pool, blockN, rng))
			if cerr != nil {
				panic(cerr)
			}
		} else {
			r2 = mc.Resample(pool, n2, rng)
		}
		rm1, rerr := mc.Induce(r1, 1)
		if rerr != nil {
			panic(rerr)
		}
		rm2, rerr := mc.Induce(r2, 1)
		if rerr != nil {
			panic(rerr)
		}
		regs, rerr := mc.MeasureGCR(rm1, rm2, r1, r2, &serial)
		if rerr != nil {
			panic(rerr)
		}
		return Deviation1(regs, float64(mc.Len(r1)), float64(mc.Len(r2)), f, g)
	}
	newDraw := func() func(*rand.Rand) float64 { return draw }
	if fast, ok := any(mc).(bootstrapper[D]); ok {
		if newRep, ok := fast.newReplicate(pool, cfg); ok {
			newDraw = func() func(*rand.Rand) float64 {
				rep := newRep()
				return func(rng *rand.Rand) float64 {
					return rep(rng, n1, n2, blockN, cfg.Extension, f, g)
				}
			}
		}
	}
	return newDraw, nil
}
