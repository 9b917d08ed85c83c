package core

import (
	"errors"
	"fmt"
	"math/rand"

	"focus/internal/cluster"
	"focus/internal/dataset"
)

// clusterClass is the cluster-model instantiation of ModelClass
// (Section 2.4): models are grid-based cluster labelings over one pinned
// grid, the GCR of two cell-aligned models is the overlay of their
// labelings, and the mergeable streaming summary is the per-batch grid-cell
// count vector.
type clusterClass struct {
	grid       *cluster.Grid
	minDensity float64
}

// Cluster returns the cluster-model class instance inducing grid-based
// cluster models over g at the given density threshold.
func Cluster(g *cluster.Grid, minDensity float64) ModelClass[*dataset.Dataset, *ClusterModel] {
	return clusterClass{grid: g, minDensity: minDensity}
}

func (clusterClass) Name() string { return "cluster" }

func (clusterClass) Len(d *dataset.Dataset) int { return d.Len() }

func (clusterClass) Concat(d1, d2 *dataset.Dataset) (*dataset.Dataset, error) {
	return d1.Concat(d2)
}

func (clusterClass) Resample(d *dataset.Dataset, n int, rng *rand.Rand) *dataset.Dataset {
	return d.Resample(n, rng)
}

// errNilGrid guards every Cluster entry point: a grid variable left nil by
// a failed construction must surface as an error, not a nil-pointer panic.
var errNilGrid = errors.New("core: Cluster requires a non-nil grid")

func (c clusterClass) Induce(d *dataset.Dataset, parallelism int) (*ClusterModel, error) {
	if c.grid == nil {
		return nil, errNilGrid
	}
	cells := cluster.CellCounts(d, c.grid, parallelism)
	m, err := cluster.ModelFromCellCounts(c.grid, cells, d.Len(), c.minDensity)
	if err != nil {
		return nil, err
	}
	// The induced model caches its inducing cell counts so MeasureGCR over
	// the same datasets (the Qualify pipeline's common case) skips a
	// redundant labeling scan.
	return &ClusterModel{M: m, cells: cells, inducedFrom: d}, nil
}

func (clusterClass) MeasureGCR(m1, m2 *ClusterModel, d1, d2 *dataset.Dataset, cfg *Config) ([]MeasuredRegion, error) {
	if !m1.M.Grid.Equal(m2.M.Grid) {
		return nil, errGridMismatch
	}
	cells1 := m1.cachedCells(d1)
	if cells1 == nil {
		cells1 = cluster.CellCounts(d1, m1.M.Grid, cfg.Parallelism)
	}
	cells2 := m2.cachedCells(d2)
	if cells2 == nil {
		cells2 = cluster.CellCounts(d2, m1.M.Grid, cfg.Parallelism)
	}
	return clusterRegionsFromCells(m1, m2, cells1, cells2)
}

func (c clusterClass) NewWindow(parallelism int) (*Window[*dataset.Dataset, *ClusterModel], error) {
	if c.grid == nil {
		return nil, errNilGrid
	}
	if c.minDensity < 0 || c.minDensity > 1 {
		return nil, fmt.Errorf("core: minDensity %v outside [0,1]", c.minDensity)
	}
	w := NewWindow(c, parallelism, c.summary, c.induceWindow)
	w.sum = make([]int, c.grid.NumCells())
	return w, nil
}

// summary seals a batch of tuples into its grid-cell counts.
func (c clusterClass) summary(d *dataset.Dataset, parallelism int) ([]int, error) {
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid batch: %w", err)
	}
	if !d.Schema.Equal(c.grid.Schema) {
		return nil, fmt.Errorf("core: batch schema differs from the grid's schema")
	}
	return cluster.CellCounts(d, c.grid, parallelism), nil
}

// induceWindow re-induces the window's cluster-model from its summed cell
// counts alone.
func (c clusterClass) induceWindow(w *Window[*dataset.Dataset, *ClusterModel]) (*ClusterModel, error) {
	m, err := cluster.ModelFromCellCounts(c.grid, w.sum, w.n, c.minDensity)
	if err != nil {
		return nil, err
	}
	return &ClusterModel{M: m}, nil
}

func (clusterClass) MeasureGCRWindows(m1, m2 *ClusterModel, w1, w2 *Window[*dataset.Dataset, *ClusterModel]) ([]MeasuredRegion, error) {
	return clusterRegionsFromCells(m1, m2, w1.sum, w2.sum)
}
