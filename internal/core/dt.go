package core

import (
	"errors"
	"fmt"
	"slices"

	"focus/internal/dataset"
	"focus/internal/dtree"
	"focus/internal/parallel"
	"focus/internal/region"
)

// DTModel is a dt-model (Section 2.1): the structural component is the set
// of per-class regions induced by the leaves of a decision tree (k regions
// per leaf for k classes, partitioning the attribute space), and the measure
// component is the fraction of the inducing dataset in each region. The
// refinement relation is partition refinement (Definition 4.2); the GCR of
// two dt-models is the overlay of their two partitions.
type DTModel struct {
	Tree *dtree.Tree
	// N is the size of the inducing dataset.
	N int
}

// BuildDTModel induces a dt-model from d with the serial tree builder.
func BuildDTModel(d *dataset.Dataset, cfg dtree.Config) (*DTModel, error) {
	return BuildDTModelP(d, cfg, 1)
}

// BuildDTModelP is BuildDTModel with a parallelism knob for the split
// search: 0 uses the process default, 1 forces the serial path, n >= 2 uses
// n workers. The induced tree is bit-identical for every setting.
func BuildDTModelP(d *dataset.Dataset, cfg dtree.Config, parallelism int) (*DTModel, error) {
	t, err := dtree.BuildP(d, cfg, parallelism)
	if err != nil {
		return nil, err
	}
	return &DTModel{Tree: t, N: d.Len()}, nil
}

// GCRRegion is one region of the GCR of two dt-models: the geometric
// intersection of a leaf box from each tree, carrying one class label
// (Definition 4.2 — predicates are "anded" pairwise; an identical structure
// exists per class label).
type GCRRegion struct {
	Leaf1, Leaf2 int
	Class        int
	// Box is the geometric intersection of the two leaf boxes (without the
	// class constraint, which Class carries).
	Box *region.Box
}

// DTGCRRegions returns the structural component of the GCR of two dt-models:
// every geometrically non-empty pairwise intersection of their leaf boxes,
// replicated per class label. Both models must be defined over equal
// schemas.
func DTGCRRegions(m1, m2 *DTModel) ([]GCRRegion, error) {
	if !m1.Tree.Schema.Equal(m2.Tree.Schema) {
		return nil, errors.New("core: dt-models over different schemas have no GCR")
	}
	k := m1.Tree.NumClasses()
	l1 := m1.Tree.Leaves()
	l2 := m2.Tree.Leaves()
	var out []GCRRegion
	for _, a := range l1 {
		for _, b := range l2 {
			box := a.Box.Intersect(b.Box)
			if box == nil {
				continue
			}
			for c := 0; c < k; c++ {
				out = append(out, GCRRegion{Leaf1: a.ID, Leaf2: b.ID, Class: c, Box: box})
			}
		}
	}
	return out, nil
}

// dtOverlay indexes the measured regions of the GCR overlay of two trees
// (Definition 4.2): the geometrically non-empty leaf pairs in DTGCRRegions
// order, those outside the focus dropped, each holding one region per
// class the focus admits.
type dtOverlay struct {
	n2 int // leaves of the second tree
	// slot holds each class's offset within a pair's regions, -1 when the
	// focus excludes the class.
	slot []int
	// pair holds the index of a leaf pair's first region (-1 = not in the
	// GCR), indexed leaf1*n2+leaf2.
	pair []int32
	n    int // number of regions
}

// reset rebuilds the overlay of t1 and t2 under focus (nil = unfocused),
// reusing the storage of the previous overlay.
func (o *dtOverlay) reset(t1, t2 *dtree.Tree, focus *region.Box) {
	k := t1.NumClasses()
	o.n2 = t2.NumLeaves()
	o.slot = o.slot[:0]
	kept := 0
	for c := 0; c < k; c++ {
		if focus == nil || classAllowed(focus, c) {
			o.slot = append(o.slot, kept)
			kept++
		} else {
			o.slot = append(o.slot, -1)
		}
	}
	o.pair = slices.Grow(o.pair[:0], t1.NumLeaves()*o.n2)[:t1.NumLeaves()*o.n2]
	for i := range o.pair {
		o.pair[i] = -1
	}
	// A pair is in the GCR when its leaf boxes overlap; unfocused, that is
	// decided without building the intersection box.
	var n int32
	l2 := t2.Leaves()
	for _, a := range t1.Leaves() {
		for _, b := range l2 {
			var in bool
			if focus == nil {
				in = a.Box.Overlaps(b.Box)
			} else if box := a.Box.Intersect(b.Box); box != nil {
				in = box.Intersect(focus) != nil
			}
			if in {
				o.pair[a.ID*o.n2+b.ID] = n
				n += int32(kept)
			}
		}
	}
	o.n = int(n)
}

// at returns the region of a tuple of class c reaching leaf l1 of the
// first tree and leaf l2 of the second, or -1 when the overlay has none.
// The caller has checked that the focus admits c.
func (o *dtOverlay) at(l1, l2, c int) int {
	if p := o.pair[l1*o.n2+l2]; p >= 0 {
		return int(p) + o.slot[c]
	}
	return -1
}

// dtMeasureGCR extends two dt-models to their GCR overlay and measures
// every refined region against d1 and d2: every tuple of each dataset is
// routed down both trees simultaneously (a single scan per dataset,
// Section 3.3.1), so a GCR region's counts are indexed by the leaf pair the
// tuple reaches plus its class label. It is the dt MeasureGCR of the
// ModelClass abstraction.
func dtMeasureGCR(m1, m2 *DTModel, d1, d2 *dataset.Dataset, cfg *Config) ([]MeasuredRegion, error) {
	if !m1.Tree.Schema.Equal(m2.Tree.Schema) {
		return nil, errors.New("core: dt-models over different schemas have no GCR")
	}
	if !d1.Schema.Equal(m1.Tree.Schema) || !d2.Schema.Equal(m1.Tree.Schema) {
		return nil, errors.New("core: datasets and models must share one schema")
	}
	k := m1.Tree.NumClasses()
	focus := cfg.FocusRegion
	var o dtOverlay
	o.reset(m1.Tree, m2.Tree, focus)
	regions := make([]MeasuredRegion, o.n)

	// Route each dataset down both trees with the tuples sharded across
	// workers. Shards accumulate integer counts into private vectors that
	// are merged in shard order, so the measures — and therefore the
	// deviation — are bit-identical to the serial scan.
	type shardAcc struct {
		counts []float64
		err    error
	}
	scan := func(d *dataset.Dataset, second bool) error {
		var scanErr error
		parallel.MapReduce(len(d.Tuples), cfg.Parallelism,
			func() *shardAcc { return &shardAcc{counts: make([]float64, len(regions))} },
			func(acc *shardAcc, ch parallel.Chunk) {
				for _, t := range d.Tuples[ch.Lo:ch.Hi] {
					if focus != nil && !focus.Contains(t) {
						continue
					}
					c := t.Class(d.Schema)
					if c >= k {
						acc.err = fmt.Errorf("core: tuple class %d outside model's %d classes", c, k)
						return
					}
					if c < 0 || o.slot[c] < 0 {
						continue
					}
					if r := o.at(m1.Tree.LeafID(t), m2.Tree.LeafID(t), c); r >= 0 {
						acc.counts[r]++
					}
				}
			},
			func(acc *shardAcc) {
				if acc.err != nil && scanErr == nil {
					scanErr = acc.err
				}
				for i, v := range acc.counts {
					if second {
						regions[i].Alpha2 += v
					} else {
						regions[i].Alpha1 += v
					}
				}
			})
		return scanErr
	}
	if err := scan(d1, false); err != nil {
		return nil, err
	}
	if err := scan(d2, true); err != nil {
		return nil, err
	}
	return regions, nil
}

// classAllowed reports whether the focus box admits the given class label.
func classAllowed(focus *region.Box, class int) bool {
	s := focus.Schema()
	if s.Class < 0 {
		return true
	}
	cs := focus.Cats[s.Class]
	return cs == nil || (class < len(cs) && cs[class])
}

// DTCellCounts returns the absolute tuple counts of d over the cells of t's
// structural component — one cell per (leaf, class) pair, indexed
// leafID*NumClasses+class. This is the per-batch summary of the
// change-monitoring setting (Section 5.2): cell counts are integers, so
// summaries from disjoint batches add (and subtract) into the counts a
// single scan of their union would produce.
func DTCellCounts(t *dtree.Tree, d *dataset.Dataset, parallelism int) ([]int, error) {
	if !d.Schema.Equal(t.Schema) {
		return nil, errors.New("core: dataset and tree must share one schema")
	}
	k := t.NumClasses()
	cells := make([]int, t.NumLeaves()*k)
	parallel.MapReduce(len(d.Tuples), parallelism,
		func() []int { return make([]int, len(cells)) },
		func(acc []int, c parallel.Chunk) {
			for _, x := range d.Tuples[c.Lo:c.Hi] {
				acc[t.LeafID(x)*k+x.Class(d.Schema)]++
			}
		},
		func(acc []int) {
			for i, v := range acc {
				cells[i] += v
			}
		})
	return cells, nil
}

// DTDeviationFromCells computes delta_1(f,g) over t's structural component
// from precomputed cell counts (as produced by DTCellCounts). All
// leaf-by-class regions are included, so difference functions that are
// non-zero on empty regions (the chi-squared f) see every cell.
func DTDeviationFromCells(t *dtree.Tree, cells1, cells2 []int, n1, n2 int, f DiffFunc, g AggFunc) (float64, error) {
	regions, err := dtCellRegions(t, cells1, cells2)
	if err != nil {
		return 0, err
	}
	return Deviation1(regions, float64(n1), float64(n2), f, g), nil
}

// DTDeviationOverTree computes delta_1(f,g) between d1 and d2 over the
// structural component of a single tree (Definition 3.5 — the structural
// components are identical by construction). This is the change-monitoring
// setting of Section 5.2: the old model's structure is imposed on the new
// data.
func DTDeviationOverTree(t *dtree.Tree, d1, d2 *dataset.Dataset, f DiffFunc, g AggFunc) (float64, error) {
	return DTDeviationOverTreeP(t, d1, d2, f, g, 1)
}

// DTDeviationOverTreeP is DTDeviationOverTree with a parallelism knob; the
// deviation is bit-identical for every worker count (integer cell counts
// merged in shard order, serial f/g reduction in cell order).
func DTDeviationOverTreeP(t *dtree.Tree, d1, d2 *dataset.Dataset, f DiffFunc, g AggFunc, parallelism int) (float64, error) {
	c1, err := DTCellCounts(t, d1, parallelism)
	if err != nil {
		return 0, err
	}
	c2, err := DTCellCounts(t, d2, parallelism)
	if err != nil {
		return 0, err
	}
	return DTDeviationFromCells(t, c1, c2, d1.Len(), d2.Len(), f, g)
}

// DTDeviationOverRegions computes delta_1(f,g) between d1 and d2 over an
// explicit region set (each box must carry its class constraint, or none to
// count all classes together). It is used by the operator pipeline of
// Section 5 and to verify Theorem 4.3 against arbitrary common refinements.
func DTDeviationOverRegions(regions []*region.Box, d1, d2 *dataset.Dataset, f DiffFunc, g AggFunc) float64 {
	mr := make([]MeasuredRegion, len(regions))
	for _, t := range d1.Tuples {
		for i, b := range regions {
			if b.Contains(t) {
				mr[i].Alpha1++
			}
		}
	}
	for _, t := range d2.Tuples {
		for i, b := range regions {
			if b.Contains(t) {
				mr[i].Alpha2++
			}
		}
	}
	return Deviation1(mr, float64(d1.Len()), float64(d2.Len()), f, g)
}
