package cluster

import (
	"math/rand"
	"testing"

	"focus/internal/dataset"
)

func blobSchema() *dataset.Schema {
	return dataset.NewSchema(
		dataset.Attribute{Name: "x", Kind: dataset.Numeric, Min: 0, Max: 100},
		dataset.Attribute{Name: "y", Kind: dataset.Numeric, Min: 0, Max: 100},
	)
}

// blobs places n points around each given center with the given spread.
func blobs(centers [][2]float64, n int, spread float64, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New(blobSchema())
	for _, c := range centers {
		for i := 0; i < n; i++ {
			x := clamp(c[0]+rng.NormFloat64()*spread, 0, 100)
			y := clamp(c[1]+rng.NormFloat64()*spread, 0, 100)
			d.Add(dataset.Tuple{x, y})
		}
	}
	return d
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func TestGridCellMapping(t *testing.T) {
	g, err := NewGrid(blobSchema(), []int{0, 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != 100 {
		t.Fatalf("NumCells = %d, want 100", g.NumCells())
	}
	// Corner and boundary handling.
	if got := g.CellOf(dataset.Tuple{0, 0}); got != 0 {
		t.Errorf("cell of origin = %d", got)
	}
	if got := g.CellOf(dataset.Tuple{100, 100}); got != 99 {
		t.Errorf("cell of max corner = %d, want 99 (clamped)", got)
	}
	// Round trip coords.
	for _, cell := range []int{0, 7, 42, 99} {
		coords := g.CellCoords(cell)
		if back := g.cellFromCoords(coords); back != cell {
			t.Errorf("coords round trip: %d -> %v -> %d", cell, coords, back)
		}
	}
}

func TestGridValidation(t *testing.T) {
	s := blobSchema()
	if _, err := NewGrid(s, []int{0}, 0); err == nil {
		t.Error("bins=0 accepted")
	}
	if _, err := NewGrid(s, nil, 5); err == nil {
		t.Error("no attributes accepted")
	}
	if _, err := NewGrid(s, []int{9}, 5); err == nil {
		t.Error("bad attribute accepted")
	}
	cat := dataset.NewSchema(dataset.Attribute{Name: "c", Kind: dataset.Categorical, Values: []string{"a"}})
	if _, err := NewGrid(cat, []int{0}, 5); err == nil {
		t.Error("categorical attribute accepted")
	}
}

func TestGridEqual(t *testing.T) {
	s := blobSchema()
	a, _ := NewGrid(s, []int{0, 1}, 10)
	b, _ := NewGrid(s, []int{0, 1}, 10)
	c, _ := NewGrid(s, []int{0, 1}, 20)
	d, _ := NewGrid(s, []int{0}, 10)
	if !a.Equal(b) {
		t.Error("identical grids unequal")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("different grids equal")
	}
}

func TestBuildModelFindsBlobs(t *testing.T) {
	d := blobs([][2]float64{{20, 20}, {80, 80}}, 300, 4, 5)
	g, err := NewGrid(blobSchema(), []int{0, 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildModel(d, g, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumClusters != 2 {
		t.Fatalf("found %d clusters, want 2", m.NumClusters)
	}
	// Points at the centers belong to different clusters; the middle of the
	// space belongs to none.
	c1 := m.ClusterOf(dataset.Tuple{20, 20})
	c2 := m.ClusterOf(dataset.Tuple{80, 80})
	if c1 == Outside || c2 == Outside || c1 == c2 {
		t.Errorf("cluster labels: center1=%d center2=%d", c1, c2)
	}
	if m.ClusterOf(dataset.Tuple{50, 95}) != Outside {
		t.Error("sparse corner assigned to a cluster")
	}
	// Measures: most of the data is inside the two clusters.
	total := m.Selectivity(0) + m.Selectivity(1)
	if total < 0.9 {
		t.Errorf("clusters cover %v of data, want > 0.9", total)
	}
}

func TestBuildModelMergesAdjacentCells(t *testing.T) {
	// One elongated blob spanning several cells must become one cluster.
	d := blobs([][2]float64{{30, 50}, {45, 50}, {60, 50}}, 300, 6, 7)
	g, _ := NewGrid(blobSchema(), []int{0, 1}, 10)
	m, err := BuildModel(d, g, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumClusters != 1 {
		t.Errorf("elongated blob split into %d clusters", m.NumClusters)
	}
}

func TestBuildModelValidation(t *testing.T) {
	d := blobs([][2]float64{{50, 50}}, 10, 1, 9)
	g, _ := NewGrid(blobSchema(), []int{0, 1}, 5)
	if _, err := BuildModel(d, g, -0.1); err == nil {
		t.Error("negative density accepted")
	}
	if _, err := BuildModel(d, g, 1.1); err == nil {
		t.Error("density > 1 accepted")
	}
}

func TestModelCountsConsistent(t *testing.T) {
	d := blobs([][2]float64{{20, 20}, {80, 80}}, 250, 3, 11)
	g, _ := NewGrid(blobSchema(), []int{0, 1}, 8)
	m, err := BuildModel(d, g, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// Counts per cluster must equal direct per-tuple counting.
	direct := make([]int, m.NumClusters)
	for _, tu := range d.Tuples {
		if c := m.ClusterOf(tu); c != Outside {
			direct[c]++
		}
	}
	for i := range direct {
		if direct[i] != m.Counts[i] {
			t.Errorf("cluster %d: model count %d, direct %d", i, m.Counts[i], direct[i])
		}
	}
}

// A grid whose cell count overflows (or merely exhausts memory) must be
// rejected at construction: -bins/-attrs are user-reachable through the
// CLI, and every derived model allocates per-cell state.
func TestNewGridRejectsHugeCellCounts(t *testing.T) {
	s := dataset.NewSchema(
		dataset.Attribute{Name: "a", Kind: dataset.Numeric, Min: 0, Max: 1},
		dataset.Attribute{Name: "b", Kind: dataset.Numeric, Min: 0, Max: 1},
		dataset.Attribute{Name: "c", Kind: dataset.Numeric, Min: 0, Max: 1},
		dataset.Attribute{Name: "d", Kind: dataset.Numeric, Min: 0, Max: 1},
	)
	if _, err := NewGrid(s, []int{0, 1, 2, 3}, 100000); err == nil {
		t.Fatal("100000^4 cells did not error")
	}
	// Exactly at the bound is still fine.
	if _, err := NewGrid(s, []int{0}, MaxCells); err != nil {
		t.Fatalf("grid at MaxCells rejected: %v", err)
	}
	if _, err := NewGrid(s, []int{0, 1}, 1<<15); err == nil {
		t.Fatal("2^30 cells did not error")
	}
}
