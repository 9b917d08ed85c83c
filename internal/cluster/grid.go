// Package cluster implements the clustering substrate for cluster-models:
// a grid-based cluster model whose regions are unions of grid cells. Per
// Section 2.4 of the paper, a cluster-model identifies a set of
// non-overlapping regions that need not cover the whole attribute space;
// deviation computation then proceeds exactly as for dt-models over the
// overlay of the two region sets.
package cluster

import (
	"fmt"

	"focus/internal/dataset"
	"focus/internal/parallel"
)

// Grid discretizes a projection of the attribute space onto chosen numeric
// attributes into Bins^len(Attrs) axis-aligned cells. Two cluster models
// over equal grids are cell-aligned, which makes their GCR the cell-wise
// overlay (the refinement relation for cluster-models).
type Grid struct {
	Schema *dataset.Schema
	Attrs  []int // numeric attribute indices
	Bins   int   // bins per attribute
	lo, hi []float64
}

// MaxCells bounds the total cell count of a grid: every model derived from
// the grid allocates per-cell state, so an unchecked bins^dims (reachable
// from the CLI's -bins/-attrs flags) would overflow or exhaust memory
// instead of returning an error.
const MaxCells = 1 << 28

// NewGrid builds a grid over the given numeric attributes of s, using the
// attributes' schema domains as bounds.
func NewGrid(s *dataset.Schema, attrs []int, bins int) (*Grid, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("cluster: bins %d <= 0", bins)
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("cluster: grid needs at least one attribute")
	}
	cells := 1
	for range attrs {
		if cells > MaxCells/bins {
			return nil, fmt.Errorf("cluster: %d bins over %d attributes exceeds %d cells", bins, len(attrs), MaxCells)
		}
		cells *= bins
	}
	g := &Grid{Schema: s, Attrs: attrs, Bins: bins}
	for _, a := range attrs {
		if a < 0 || a >= s.NumAttrs() || s.Attrs[a].Kind != dataset.Numeric {
			return nil, fmt.Errorf("cluster: attribute %d is not numeric", a)
		}
		if s.Attrs[a].Max <= s.Attrs[a].Min {
			return nil, fmt.Errorf("cluster: attribute %q has empty domain", s.Attrs[a].Name)
		}
		g.lo = append(g.lo, s.Attrs[a].Min)
		g.hi = append(g.hi, s.Attrs[a].Max)
	}
	return g, nil
}

// NumCells returns the total number of cells.
func (g *Grid) NumCells() int {
	n := 1
	for range g.Attrs {
		n *= g.Bins
	}
	return n
}

// Equal reports whether two grids discretize the same projection the same
// way.
func (g *Grid) Equal(o *Grid) bool {
	if g.Bins != o.Bins || len(g.Attrs) != len(o.Attrs) || !g.Schema.Equal(o.Schema) {
		return false
	}
	for i := range g.Attrs {
		if g.Attrs[i] != o.Attrs[i] {
			return false
		}
	}
	return true
}

// CellOf returns the flat cell index of tuple t.
func (g *Grid) CellOf(t dataset.Tuple) int {
	cell := 0
	for i, a := range g.Attrs {
		b := int(float64(g.Bins) * (t[a] - g.lo[i]) / (g.hi[i] - g.lo[i]))
		if b < 0 {
			b = 0
		}
		if b >= g.Bins {
			b = g.Bins - 1
		}
		cell = cell*g.Bins + b
	}
	return cell
}

// CellCoords returns the per-attribute bin indices of a flat cell index.
func (g *Grid) CellCoords(cell int) []int {
	m := len(g.Attrs)
	coords := make([]int, m)
	for i := m - 1; i >= 0; i-- {
		coords[i] = cell % g.Bins
		cell /= g.Bins
	}
	return coords
}

// cellFromCoords is the inverse of CellCoords.
func (g *Grid) cellFromCoords(coords []int) int {
	cell := 0
	for _, c := range coords {
		cell = cell*g.Bins + c
	}
	return cell
}

// Model is a grid-based cluster-model: each dense cell belongs to exactly
// one cluster; sparse cells belong to no cluster (Outside), making the
// region set non-exhaustive, as Section 2.4 allows.
type Model struct {
	Grid *Grid
	// CellCluster maps each cell to a cluster id, or Outside.
	CellCluster []int
	// NumClusters is the number of clusters found.
	NumClusters int
	// Counts holds, per cluster, the absolute number of inducing tuples.
	Counts []int
	// N is the size of the inducing dataset.
	N int
}

// Outside marks grid cells that belong to no cluster.
const Outside = -1

// CellCounts returns the absolute number of tuples of d in every grid cell.
// Cell counts are the mergeable summary of grid-based clustering: counts
// from disjoint batches add (and subtract) into the counts a single scan of
// their union would produce, which is what lets a windowed monitor rebuild
// a cluster-model without rescanning retained batches (internal/stream).
func CellCounts(d *dataset.Dataset, g *Grid, parallelism int) []int {
	cellCounts := make([]int, g.NumCells())
	parallel.MapReduce(len(d.Tuples), parallelism,
		func() []int { return make([]int, len(cellCounts)) },
		func(acc []int, c parallel.Chunk) {
			for _, t := range d.Tuples[c.Lo:c.Hi] {
				acc[g.CellOf(t)]++
			}
		},
		func(acc []int) {
			for i, v := range acc {
				cellCounts[i] += v
			}
		})
	return cellCounts
}

// BuildModel induces a cluster-model from d over grid g: cells holding at
// least minDensity fraction of the tuples are dense, and orthogonally
// adjacent dense cells are merged into clusters (grid-based clustering in
// the spirit of the density-based methods the paper cites).
func BuildModel(d *dataset.Dataset, g *Grid, minDensity float64) (*Model, error) {
	return ModelFromCellCounts(g, CellCounts(d, g, 1), d.Len(), minDensity)
}

// ModelFromCellCounts induces a cluster-model from precomputed per-cell
// counts over n tuples. The model is a pure function of the counts: two
// ways of producing the same counts (a full scan, or merged per-batch
// summaries) induce bit-identical models.
func ModelFromCellCounts(g *Grid, cellCounts []int, n int, minDensity float64) (*Model, error) {
	if minDensity < 0 || minDensity > 1 {
		return nil, fmt.Errorf("cluster: minDensity %v outside [0,1]", minDensity)
	}
	if len(cellCounts) != g.NumCells() {
		return nil, fmt.Errorf("cluster: %d cell counts for a grid of %d cells", len(cellCounts), g.NumCells())
	}
	minCount := int(minDensity*float64(n) + 0.999999)
	if minCount < 1 {
		minCount = 1
	}
	m := &Model{
		Grid:        g,
		CellCluster: make([]int, g.NumCells()),
		N:           n,
	}
	for i := range m.CellCluster {
		m.CellCluster[i] = Outside
	}
	// Union dense cells into connected components by BFS over the 2*dim
	// orthogonal neighbours.
	dim := len(g.Attrs)
	for start, c := range cellCounts {
		if c < minCount || m.CellCluster[start] != Outside {
			continue
		}
		id := m.NumClusters
		m.NumClusters++
		m.Counts = append(m.Counts, 0)
		queue := []int{start}
		m.CellCluster[start] = id
		for len(queue) > 0 {
			cell := queue[0]
			queue = queue[1:]
			m.Counts[id] += cellCounts[cell]
			coords := g.CellCoords(cell)
			for i := 0; i < dim; i++ {
				for _, delta := range [2]int{-1, 1} {
					coords[i] += delta
					if coords[i] >= 0 && coords[i] < g.Bins {
						nb := g.cellFromCoords(coords)
						if cellCounts[nb] >= minCount && m.CellCluster[nb] == Outside {
							m.CellCluster[nb] = id
							queue = append(queue, nb)
						}
					}
					coords[i] -= delta
				}
			}
		}
	}
	return m, nil
}

// ClusterOf returns the cluster id of tuple t, or Outside.
func (m *Model) ClusterOf(t dataset.Tuple) int {
	return m.CellCluster[m.Grid.CellOf(t)]
}

// Selectivity returns the fraction of the inducing dataset in cluster id.
func (m *Model) Selectivity(id int) float64 {
	if m.N == 0 {
		return 0
	}
	return float64(m.Counts[id]) / float64(m.N)
}
