package dtree

import (
	"sort"
	"testing"

	"focus/internal/classgen"
	"focus/internal/dataset"
)

// BuildNaive is the reference CART builder the fast engine is proven
// against: it re-sorts every numeric attribute at every node and searches
// attributes serially. Build produces bit-identical trees — the
// differential tests of engine_test.go pin the equivalence — so BuildNaive
// is the independent oracle of that harness and the baseline of the
// BenchmarkDTreeBuildNaive/BenchmarkDTreeBuildFast pair.
func BuildNaive(d *dataset.Dataset, cfg Config) (*Tree, error) {
	cfg, err := prepare(d, cfg)
	if err != nil {
		return nil, err
	}
	b := &naiveBuilder{
		data: d,
		cfg:  cfg,
		k:    d.Schema.NumClasses(),
	}
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	t := &Tree{Schema: d.Schema}
	t.Root = b.grow(idx, 0)
	numberLeaves(t)
	return t, nil
}

// naiveBuilder is the reference implementation behind BuildNaive.
type naiveBuilder struct {
	data *dataset.Dataset
	cfg  Config
	k    int // number of classes
}

func (b *naiveBuilder) classCounts(idx []int) []int {
	counts := make([]int, b.k)
	for _, i := range idx {
		counts[b.data.Tuples[i].Class(b.data.Schema)]++
	}
	return counts
}

func (b *naiveBuilder) grow(idx []int, depth int) *Node {
	counts := b.classCounts(idx)
	leaf := &Node{ClassCounts: counts}
	if depth >= b.cfg.MaxDepth || len(idx) < 2*b.cfg.MinLeaf || pure(counts) {
		return leaf
	}
	best := b.bestSplit(idx, counts)
	if !best.valid || best.gain < b.cfg.MinGain {
		return leaf
	}
	n := &Node{Attr: best.attr, Threshold: best.threshold}
	if b.data.Schema.Attrs[best.attr].Kind == dataset.Categorical {
		n.LeftValues = best.leftValues(b.data.Schema.Attrs[best.attr].Cardinality())
	}
	left, right := b.partition(idx, n)
	if len(left) < b.cfg.MinLeaf || len(right) < b.cfg.MinLeaf {
		return leaf
	}
	n.Left = b.grow(left, depth+1)
	n.Right = b.grow(right, depth+1)
	return n
}

func (b *naiveBuilder) bestSplit(idx []int, counts []int) split {
	parent := gini(counts, len(idx))
	best := split{}
	for attr := range b.data.Schema.Attrs {
		if attr == b.data.Schema.Class {
			continue
		}
		var s split
		if b.data.Schema.Attrs[attr].Kind == dataset.Numeric {
			s = b.bestNumericSplit(idx, attr, parent)
		} else {
			s = b.bestCategoricalSplit(idx, attr, parent, counts)
		}
		if s.valid && (!best.valid || s.gain > best.gain) {
			best = s
		}
	}
	return best
}

// bestNumericSplit sweeps the sorted values of attr, evaluating the gini
// gain at every cut between distinct consecutive values, honouring MinLeaf
// on both sides.
func (b *naiveBuilder) bestNumericSplit(idx []int, attr int, parent float64) split {
	type vc struct {
		v float64
		c int
	}
	vals := make([]vc, len(idx))
	for i, j := range idx {
		t := b.data.Tuples[j]
		vals[i] = vc{t[attr], t.Class(b.data.Schema)}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].v < vals[j].v })

	leftCounts := make([]int, b.k)
	rightCounts := b.classCounts(idx)
	n := len(vals)
	best := split{attr: attr}
	for i := 0; i < n-1; i++ {
		leftCounts[vals[i].c]++
		rightCounts[vals[i].c]--
		if vals[i].v == vals[i+1].v {
			continue // not a valid cut point
		}
		nl := i + 1
		nr := n - nl
		if nl < b.cfg.MinLeaf || nr < b.cfg.MinLeaf {
			continue
		}
		w := parent - (float64(nl)*gini(leftCounts, nl)+float64(nr)*gini(rightCounts, nr))/float64(n)
		if !best.valid || w > best.gain {
			best.valid = true
			best.gain = w
			best.threshold = numericCut(vals[i].v, vals[i+1].v)
		}
	}
	return best
}

// bestCategoricalSplit builds the attribute's AVC-set (value x class counts,
// as in RainForest) and hands the sweep to the shared bestCategoricalFromAVC.
func (b *naiveBuilder) bestCategoricalSplit(idx []int, attr int, parent float64, counts []int) split {
	sc := newAttrScratch(b.data.Schema.Attrs[attr].Cardinality(), b.k)
	for _, j := range idx {
		t := b.data.Tuples[j]
		v := int(t[attr])
		sc.avc[v*b.k+t.Class(b.data.Schema)]++
		sc.totals[v]++
	}
	return bestCategoricalFromAVC(attr, &sc, counts, len(idx), b.k, parent, b.cfg.MinLeaf)
}

func (b *naiveBuilder) partition(idx []int, n *Node) (left, right []int) {
	numeric := b.data.Schema.Attrs[n.Attr].Kind == dataset.Numeric
	for _, j := range idx {
		t := b.data.Tuples[j]
		goLeft := false
		if numeric {
			goLeft = t[n.Attr] <= n.Threshold
		} else {
			v := int(t[n.Attr])
			goLeft = v >= 0 && v < len(n.LeftValues) && n.LeftValues[v]
		}
		if goLeft {
			left = append(left, j)
		} else {
			right = append(right, j)
		}
	}
	return left, right
}

// numberLeaves assigns dense leaf ids in DFS order and records the leaf
// list on the tree.
func numberLeaves(t *Tree) {
	t.leaves = nil
	var number func(n *Node)
	number = func(n *Node) {
		if n.IsLeaf() {
			n.LeafID = len(t.leaves)
			t.leaves = append(t.leaves, n)
			return
		}
		n.LeafID = -1
		number(n.Left)
		number(n.Right)
	}
	number(t.Root)
	t.numLeaves = len(t.leaves)
}

// dtreeBenchData is the workload of the tree-construction pair: the paper's
// synthetic person data at experiment scale.
func dtreeBenchData(b *testing.B) *dataset.Dataset {
	b.Helper()
	d, err := classgen.Generate(classgen.Config{NumTuples: 10000, Function: classgen.F2, Seed: 14})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// CART tree construction with the reference per-node re-sorting builder —
// the substrate cost every dt experiment used to pay. Kept as the baseline
// of the before/after pair; compare against BenchmarkDTreeBuildFast.
func BenchmarkDTreeBuildNaive(b *testing.B) {
	b.ReportAllocs()
	d := dtreeBenchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildNaive(d, Config{MaxDepth: 8, MinLeaf: 50}); err != nil {
			b.Fatal(err)
		}
	}
}

// The presorted-attribute-list engine with parallel split search on the
// identical workload (bit-identical output tree). Compare against
// BenchmarkDTreeBuildNaive.
func BenchmarkDTreeBuildFast(b *testing.B) {
	b.ReportAllocs()
	d := dtreeBenchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildP(d, Config{MaxDepth: 8, MinLeaf: 50}, 0); err != nil {
			b.Fatal(err)
		}
	}
}
