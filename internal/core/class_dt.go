package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"focus/internal/dataset"
	"focus/internal/dtree"
)

// dtClass is the dt-model instantiation of ModelClass (Section 2.1):
// models are independently grown decision trees, and the GCR is the
// overlay of their leaf partitions (Definition 4.2).
type dtClass struct {
	cfg dtree.Config
}

// DT returns the dt-model class instance growing trees with the given
// configuration.
func DT(cfg dtree.Config) ModelClass[*dataset.Dataset, *DTModel] {
	return dtClass{cfg: cfg}
}

func (dtClass) Name() string { return "dt" }

func (dtClass) Len(d *dataset.Dataset) int { return d.Len() }

func (dtClass) Concat(d1, d2 *dataset.Dataset) (*dataset.Dataset, error) { return d1.Concat(d2) }

func (dtClass) Resample(d *dataset.Dataset, n int, rng *rand.Rand) *dataset.Dataset {
	return d.Resample(n, rng)
}

func (c dtClass) Induce(d *dataset.Dataset, parallelism int) (*DTModel, error) {
	return BuildDTModelP(d, c.cfg, parallelism)
}

func (dtClass) MeasureGCR(m1, m2 *DTModel, d1, d2 *dataset.Dataset, cfg *Config) ([]MeasuredRegion, error) {
	return dtMeasureGCR(m1, m2, d1, d2, cfg)
}

// newReplicate implements the bootstrapper fast path for dt-models: the
// pool is ranked once, and each bootstrap worker owns two dtree.Builders
// over it, one per replicate tree. A replicate draws pool row indices with
// exactly Resample's RNG calls and grows each tree over its distinct drawn
// rows, weighted by their draw counts, instead of gathering and sorting
// the resample. A build knows the leaf each of its rows ends in, so the
// GCR counts route each distinct row through the other tree only and add
// its draw count. The trees, the GCR counts and the replicate deviation
// are bit-identical to the generic Resample/Induce/MeasureGCR path —
// pinned by TestDTQualifyBootstrapEquivalence.
func (c dtClass) newReplicate(pool *dataset.Dataset, cfg *Config) (func() replicateFunc, bool) {
	ranks, err := dtree.NewRanks(pool, cfg.Parallelism)
	if err != nil {
		return nil, false
	}
	focus := cfg.FocusRegion
	return func() replicateFunc {
		b1, b2 := dtree.NewBuilder(ranks), dtree.NewBuilder(ranks)
		var rows1, rows2 []int32
		var o dtOverlay
		var regions []MeasuredRegion
		// measure adds each distinct row of b's last build to the regions
		// of the leaf pair it reaches: its leaf in b's own tree, as the
		// build placed it, and its leaf in the other tree, by routing.
		measure := func(b *dtree.Builder, other *dtree.Tree, second bool) {
			b.EachRow(func(row int32, weight, leaf int) {
				t := pool.Tuples[row]
				c := t.Class(pool.Schema)
				if (focus != nil && !focus.Contains(t)) || c < 0 || o.slot[c] < 0 {
					return
				}
				l1, l2 := leaf, other.LeafID(t)
				if second {
					l1, l2 = l2, l1
				}
				switch r := o.at(l1, l2, c); {
				case r < 0:
				case second:
					regions[r].Alpha2 += float64(weight)
				default:
					regions[r].Alpha1 += float64(weight)
				}
			})
		}
		return func(rng *rand.Rand, n1, n2, blockN int, extension bool, f DiffFunc, g AggFunc) float64 {
			rows1 = drawRows(rows1[:0], len(pool.Tuples), n1, rng)
			if extension {
				rows2 = drawRows(append(rows2[:0], rows1...), len(pool.Tuples), blockN, rng)
			} else {
				rows2 = drawRows(rows2[:0], len(pool.Tuples), n2, rng)
			}
			t1, err := b1.Build(rows1, c.cfg)
			if err != nil {
				panic(err)
			}
			t2, err := b2.Build(rows2, c.cfg)
			if err != nil {
				panic(err)
			}
			o.reset(t1, t2, focus)
			regions = slices.Grow(regions[:0], o.n)[:o.n]
			clear(regions)
			measure(b1, t2, false)
			measure(b2, t1, true)
			return Deviation1(regions, float64(len(rows1)), float64(len(rows2)), f, g)
		}
	}, true
}

// drawRows appends n row indices drawn with replacement from [0, poolN),
// one rng.Intn(poolN) per row — the RNG calls of dataset.Resample.
func drawRows(rows []int32, poolN, n int, rng *rand.Rand) []int32 {
	for i := 0; i < n; i++ {
		rows = append(rows, int32(rng.Intn(poolN)))
	}
	return rows
}

// Dt-models have no incremental summary of their own — re-growing a tree
// per window advance is not a mergeable-count computation. The monitoring
// regime of Section 5.2 instead pins the reference tree's structure on the
// stream, which is the PinnedDT class.
func (dtClass) NewWindow(parallelism int) (*Window[*dataset.Dataset, *DTModel], error) {
	return nil, errors.New("core: dt-model streaming requires a pinned structure; use PinnedDT")
}

func (dtClass) MeasureGCRWindows(m1, m2 *DTModel, w1, w2 *Window[*dataset.Dataset, *DTModel]) ([]MeasuredRegion, error) {
	return nil, errors.New("core: dt-model streaming requires a pinned structure; use PinnedDT")
}

// DTMeasures is the model induced by the PinnedDT class: the measure
// component of a dataset over a pinned tree's leaf-by-class cells — the
// change-monitoring instantiation of Section 5.2, where the old model's
// structure is imposed on the new data.
type DTMeasures struct {
	Tree *dtree.Tree
	// Cells holds the absolute tuple counts per (leaf, class) cell, indexed
	// leafID*NumClasses+class as in DTCellCounts.
	Cells []int
	// N is the size of the inducing dataset.
	N int

	// inducedFrom identifies the inducing dataset, so MeasureGCR can serve
	// Cells without a fresh scan when measuring the model against its own
	// inducing data (the Qualify bootstrap's hot path). Keyed by dataset
	// identity and size; the inducing dataset must not be mutated in place
	// between Induce and measuring.
	inducedFrom *dataset.Dataset
}

// cachedCells returns the inducing cell counts when d is the dataset this
// model was induced from, or nil to request a fresh scan.
func (m *DTMeasures) cachedCells(d *dataset.Dataset) []int {
	if m.Cells != nil && m.inducedFrom == d && d.Len() == m.N {
		return m.Cells
	}
	return nil
}

// pinnedDTClass is the Section 5.2 monitoring instantiation: the
// structural component is fixed to a pinned tree's cells, so every model
// of the class shares one structure, the GCR is that structure itself, and
// the mergeable streaming summary is the per-batch cell-count vector.
type pinnedDTClass struct {
	tree *dtree.Tree
}

// PinnedDT returns the model class whose structure is pinned to the given
// tree's leaf-by-class cells.
func PinnedDT(tree *dtree.Tree) ModelClass[*dataset.Dataset, *DTMeasures] {
	return pinnedDTClass{tree: tree}
}

func (pinnedDTClass) Name() string { return "dt-pinned" }

func (pinnedDTClass) Len(d *dataset.Dataset) int { return d.Len() }

func (pinnedDTClass) Concat(d1, d2 *dataset.Dataset) (*dataset.Dataset, error) {
	return d1.Concat(d2)
}

func (pinnedDTClass) Resample(d *dataset.Dataset, n int, rng *rand.Rand) *dataset.Dataset {
	return d.Resample(n, rng)
}

// errNilTree guards every PinnedDT entry point: a tree variable left nil by
// a failed load must surface as an error, not a nil-pointer panic.
var errNilTree = errors.New("core: PinnedDT requires a non-nil tree")

func (c pinnedDTClass) Induce(d *dataset.Dataset, parallelism int) (*DTMeasures, error) {
	if c.tree == nil {
		return nil, errNilTree
	}
	cells, err := DTCellCounts(c.tree, d, parallelism)
	if err != nil {
		return nil, err
	}
	return &DTMeasures{Tree: c.tree, Cells: cells, N: d.Len(), inducedFrom: d}, nil
}

// MeasureGCR measures d1 and d2 over the pinned tree's cells (the shared
// structure is its own GCR). When a dataset is the one its model was
// induced from — the common case — the model's cached cell counts are
// served without a fresh scan. Focus restrictions do not apply (the
// structure is fixed).
func (c pinnedDTClass) MeasureGCR(m1, m2 *DTMeasures, d1, d2 *dataset.Dataset, cfg *Config) ([]MeasuredRegion, error) {
	cells1 := m1.cachedCells(d1)
	if cells1 == nil {
		var err error
		if cells1, err = DTCellCounts(c.tree, d1, cfg.Parallelism); err != nil {
			return nil, err
		}
	}
	cells2 := m2.cachedCells(d2)
	if cells2 == nil {
		var err error
		if cells2, err = DTCellCounts(c.tree, d2, cfg.Parallelism); err != nil {
			return nil, err
		}
	}
	return dtCellRegions(c.tree, cells1, cells2)
}

func (c pinnedDTClass) NewWindow(parallelism int) (*Window[*dataset.Dataset, *DTMeasures], error) {
	if c.tree == nil {
		return nil, errNilTree
	}
	w := NewWindow(c, parallelism, c.summary, c.induceWindow)
	w.sum = make([]int, c.tree.NumLeaves()*c.tree.NumClasses())
	return w, nil
}

// summary seals a batch of tuples into its cell counts over the pinned
// tree's leaf-by-class cells.
func (c pinnedDTClass) summary(d *dataset.Dataset, parallelism int) ([]int, error) {
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid batch: %w", err)
	}
	return DTCellCounts(c.tree, d, parallelism)
}

// induceWindow returns the window's summed cell counts as its measures.
func (c pinnedDTClass) induceWindow(w *Window[*dataset.Dataset, *DTMeasures]) (*DTMeasures, error) {
	return &DTMeasures{Tree: c.tree, Cells: slices.Clone(w.sum), N: w.n}, nil
}

func (c pinnedDTClass) MeasureGCRWindows(m1, m2 *DTMeasures, w1, w2 *Window[*dataset.Dataset, *DTMeasures]) ([]MeasuredRegion, error) {
	return dtCellRegions(c.tree, w1.sum, w2.sum)
}

// dtCellRegions builds the measured GCR regions of a pinned tree from two
// aligned cell-count vectors. All leaf-by-class cells are included, so
// difference functions that are non-zero on empty regions (the chi-squared
// f) see every cell.
func dtCellRegions(t *dtree.Tree, cells1, cells2 []int) ([]MeasuredRegion, error) {
	want := t.NumLeaves() * t.NumClasses()
	if len(cells1) != want || len(cells2) != want {
		return nil, fmt.Errorf("core: cell counts of length %d/%d do not match the tree's %d cells", len(cells1), len(cells2), want)
	}
	regions := make([]MeasuredRegion, want)
	for i := range regions {
		regions[i] = MeasuredRegion{Alpha1: float64(cells1[i]), Alpha2: float64(cells2[i])}
	}
	return regions, nil
}
