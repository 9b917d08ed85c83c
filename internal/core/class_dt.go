package core

import (
	"errors"
	"fmt"
	"math/rand"

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
// pool's numeric attributes are ranked once, and each replicate grows its
// two trees from those ranks (dtree.BuildSample) instead of sorting every
// attribute of every resample again. A replicate draws pool row indices
// with exactly Resample's RNG calls and gathers the drawn tuples, so the
// trees, the GCR counts and the replicate deviation are bit-identical to
// the generic Resample/Induce/MeasureGCR path — pinned by
// TestDTQualifyBootstrapEquivalence.
func (c dtClass) newReplicate(pool *dataset.Dataset, cfg *Config) (func() replicateFunc, bool) {
	ranks, err := dtree.NewRanks(pool, cfg.Parallelism)
	if err != nil {
		return nil, false
	}
	serial := *cfg
	serial.Parallelism = 1
	rep := func(rng *rand.Rand, n1, n2, blockN int, extension bool, f DiffFunc, g AggFunc) float64 {
		rows1 := drawRows(nil, len(pool.Tuples), n1, rng)
		var rows2 []int32
		if extension {
			rows2 = drawRows(append(make([]int32, 0, n1+blockN), rows1...), len(pool.Tuples), blockN, rng)
		} else {
			rows2 = drawRows(nil, len(pool.Tuples), n2, rng)
		}
		s1, s2 := gatherRows(pool, rows1), gatherRows(pool, rows2)
		t1, err := dtree.BuildSample(s1, ranks, rows1, c.cfg)
		if err != nil {
			panic(err)
		}
		t2, err := dtree.BuildSample(s2, ranks, rows2, c.cfg)
		if err != nil {
			panic(err)
		}
		regions, err := dtMeasureGCR(&DTModel{Tree: t1, N: s1.Len()}, &DTModel{Tree: t2, N: s2.Len()}, s1, s2, &serial)
		if err != nil {
			panic(err)
		}
		return Deviation1(regions, float64(s1.Len()), float64(s2.Len()), f, g)
	}
	return func() replicateFunc { return rep }, true
}

// drawRows appends n row indices drawn with replacement from [0, poolN),
// one rng.Intn(poolN) per row — the RNG calls of dataset.Resample.
func drawRows(rows []int32, poolN, n int, rng *rand.Rand) []int32 {
	for i := 0; i < n; i++ {
		rows = append(rows, int32(rng.Intn(poolN)))
	}
	return rows
}

// gatherRows returns the sample whose tuple i is the pool's tuple rows[i],
// sharing tuple storage with the pool as Resample does.
func gatherRows(pool *dataset.Dataset, rows []int32) *dataset.Dataset {
	out := &dataset.Dataset{Schema: pool.Schema, Tuples: make([]dataset.Tuple, len(rows))}
	for i, p := range rows {
		out.Tuples[i] = pool.Tuples[p]
	}
	return out
}

// Dt-models have no incremental summary of their own — re-growing a tree
// per window advance is not a mergeable-count computation. The monitoring
// regime of Section 5.2 instead pins the reference tree's structure on the
// stream, which is the PinnedDT class.
func (dtClass) NewWindow(parallelism int) (Window[*dataset.Dataset, *DTModel], error) {
	return nil, errors.New("core: dt-model streaming requires a pinned structure; use PinnedDT")
}

func (dtClass) MeasureGCRWindows(m1, m2 *DTModel, w1, w2 Window[*dataset.Dataset, *DTModel]) ([]MeasuredRegion, error) {
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

func (c pinnedDTClass) NewWindow(parallelism int) (Window[*dataset.Dataset, *DTMeasures], error) {
	if c.tree == nil {
		return nil, errNilTree
	}
	return &dtWindow{
		tree:  c.tree,
		cells: make([]int, c.tree.NumLeaves()*c.tree.NumClasses()),
	}, nil
}

func (c pinnedDTClass) MeasureGCRWindows(m1, m2 *DTMeasures, w1, w2 Window[*dataset.Dataset, *DTMeasures]) ([]MeasuredRegion, error) {
	dw1, ok1 := w1.(*dtWindow)
	dw2, ok2 := w2.(*dtWindow)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("core: dt MeasureGCRWindows over foreign windows %T/%T", w1, w2)
	}
	return dtCellRegions(c.tree, dw1.cells, dw2.cells)
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

// dtBatch is the sealed summary of one batch of tuples for pinned-tree
// monitoring: the raw tuples (retained for bootstrap qualification) and
// the batch's cell counts over the pinned tree's leaf-by-class cells. Cell
// counts are integers, so they add into and subtract out of the window
// aggregate exactly.
type dtBatch struct {
	data  *dataset.Dataset
	cells []int
}

// dtWindow aggregates batch cell counts incrementally.
type dtWindow struct {
	tree      *dtree.Tree
	batchList []*dtBatch
	cells     []int
	n         int
}

func (w *dtWindow) Add(d *dataset.Dataset, parallelism int) error {
	if err := d.Validate(); err != nil {
		return fmt.Errorf("core: invalid batch: %w", err)
	}
	cells, err := DTCellCounts(w.tree, d, parallelism)
	if err != nil {
		return err
	}
	b := &dtBatch{data: d, cells: cells}
	w.batchList = append(w.batchList, b)
	for i, v := range b.cells {
		w.cells[i] += v
	}
	w.n += d.Len()
	return nil
}

func (w *dtWindow) RemoveFront() {
	b := w.batchList[0]
	w.batchList[0] = nil
	w.batchList = w.batchList[1:]
	for i, v := range b.cells {
		w.cells[i] -= v
	}
	w.n -= b.data.Len()
}

func (w *dtWindow) Batches() int { return len(w.batchList) }

func (w *dtWindow) N() int { return w.n }

func (w *dtWindow) Data() *dataset.Dataset {
	out := dataset.New(w.tree.Schema)
	for _, b := range w.batchList {
		out.Tuples = append(out.Tuples, b.data.Tuples...)
	}
	return out
}

func (w *dtWindow) Clone() Window[*dataset.Dataset, *DTMeasures] {
	return &dtWindow{
		tree:      w.tree,
		batchList: append([]*dtBatch(nil), w.batchList...),
		cells:     append([]int(nil), w.cells...),
		n:         w.n,
	}
}

func (w *dtWindow) Induce() (*DTMeasures, error) {
	return &DTMeasures{
		Tree:  w.tree,
		Cells: append([]int(nil), w.cells...),
		N:     w.n,
	}, nil
}
