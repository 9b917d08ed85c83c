package dtree

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"focus/internal/dataset"
)

// Config controls tree growth. The zero value is usable: every zero field
// selects the default documented on it. Negative values are configuration
// errors — Build rejects them instead of silently growing a degenerate
// tree (a negative MaxDepth used to yield a root-only stump).
type Config struct {
	// MaxDepth bounds the tree depth (root at depth 0). The zero value
	// selects the default of 12; negative values are rejected.
	MaxDepth int
	// MinLeaf is the minimum number of training tuples in a leaf. Splits
	// producing a smaller child are not considered. The zero value selects
	// the default of 25; negative values are rejected.
	MinLeaf int
	// MinGain is the minimum gini gain required to split. The zero value
	// selects the default of 1e-6 — an exact-zero minimum is therefore not
	// expressible, which keeps zero-gain splits (no information) out of
	// every tree. Negative values are rejected.
	MinGain float64
}

func (c Config) withDefaults() Config {
	if c.MaxDepth == 0 {
		c.MaxDepth = 12
	}
	if c.MinLeaf == 0 {
		c.MinLeaf = 25
	}
	if c.MinGain == 0 {
		c.MinGain = 1e-6
	}
	return c
}

// validate rejects configurations whose zero-value defaulting cannot
// apply: negative limits.
func (c Config) validate() error {
	if c.MaxDepth < 0 {
		return fmt.Errorf("dtree: MaxDepth %d < 0 (use 0 for the default of 12)", c.MaxDepth)
	}
	if c.MinLeaf < 0 {
		return fmt.Errorf("dtree: MinLeaf %d < 0 (use 0 for the default of 25)", c.MinLeaf)
	}
	if c.MinGain < 0 {
		return fmt.Errorf("dtree: MinGain %v < 0 (use 0 for the default of 1e-6)", c.MinGain)
	}
	return nil
}

// prepare runs the shared entry validation of every builder: the dataset
// must be a non-empty classification dataset free of NaN values, and the
// configuration must be valid. It returns the configuration with defaults
// applied.
func prepare(d *dataset.Dataset, cfg Config) (Config, error) {
	cfg, err := prepareShape(d.Schema, d.Len(), cfg)
	if err != nil {
		return cfg, err
	}
	return cfg, checkFinite(d)
}

// prepareShape is prepare without the NaN scan, for an n-row sample of a
// dataset whose Ranks already proved it NaN-free.
func prepareShape(s *dataset.Schema, n int, cfg Config) (Config, error) {
	if s.Class < 0 {
		return cfg, errors.New("dtree: schema has no class attribute")
	}
	if n == 0 {
		return cfg, errors.New("dtree: cannot build a tree from an empty dataset")
	}
	if err := cfg.validate(); err != nil {
		return cfg, err
	}
	return cfg.withDefaults(), nil
}

// checkFinite rejects NaN attribute values. The file decoders never admit
// them, but programmatically assembled datasets can: a NaN breaks the sort
// comparator of the split search silently (NaN compares false against
// everything), producing an arbitrary tree — a diagnostic error here beats
// a wrong model there.
func checkFinite(d *dataset.Dataset) error {
	for i, t := range d.Tuples {
		for a := range t {
			if math.IsNaN(t[a]) {
				name := fmt.Sprintf("#%d", a)
				if a < len(d.Schema.Attrs) {
					name = d.Schema.Attrs[a].Name
				}
				return fmt.Errorf("dtree: tuple %d attribute %q is NaN", i, name)
			}
		}
	}
	return nil
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

// Build grows a CART-style tree over d with gini-impurity splits. Numeric
// attributes use the best threshold found by a sorted sweep over every cut;
// categorical attributes use the best value-subset split found by ordering
// values by first-class proportion (optimal for two classes, a standard
// heuristic otherwise). The class attribute is never split on.
//
// Build runs the presorted-attribute-list engine on the serial path; it is
// BuildP with a parallelism of 1. The tree is bit-identical to the
// reference BuildNaive builder.
func Build(d *dataset.Dataset, cfg Config) (*Tree, error) {
	return BuildP(d, cfg, 1)
}

// BuildP is Build with a parallelism knob: the per-node split search
// shards attributes across workers (0 = the process default, 1 = the
// serial path, n >= 2 = n workers) and merges the per-attribute winners in
// fixed attribute order, so the tree is bit-identical for every setting.
// It ranks d and grows the tree with a Builder over every row of d, drawn
// once.
func BuildP(d *dataset.Dataset, cfg Config, parallelism int) (*Tree, error) {
	if _, err := prepare(d, cfg); err != nil {
		return nil, err
	}
	rows := make([]int32, d.Len())
	for i := range rows {
		rows[i] = int32(i)
	}
	return NewBuilder(rankAttrs(d, parallelism)).build(rows, cfg, parallelism)
}

// BuildNaive is the reference CART builder the fast engine is proven
// against: it re-sorts every numeric attribute at every node and searches
// attributes serially. Build produces bit-identical trees — the
// differential tests pin the equivalence — so BuildNaive exists only as
// the independent baseline of that harness and of the
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

// gini returns the gini impurity 1 - sum(p_c^2) of a class histogram.
func gini(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	s := 0.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		s += p * p
	}
	return 1 - s
}

func pure(counts []int) bool {
	nonzero := 0
	for _, c := range counts {
		if c > 0 {
			nonzero++
		}
	}
	return nonzero <= 1
}

// numericCut returns the threshold of a cut between the adjacent sorted
// values lo < hi, realized by routing value <= threshold left: the
// midpoint, unless float64 rounding pushes the midpoint all the way up to
// hi (ulp-adjacent values), which would route hi's tuples left and break
// the agreement between the swept class counts the gain was computed from
// and the realized partition. In that case the cut falls back to lo, which
// realizes exactly the swept assignment.
func numericCut(lo, hi float64) float64 {
	mid := lo + (hi-lo)/2
	if mid >= hi {
		return lo
	}
	return mid
}

// split describes the best split found for a node.
type split struct {
	attr      int
	threshold float64 // numeric
	// pos locates the cut: the number of list entries left of it
	// (numeric) or the number of values in sweep order left of it
	// (categorical).
	pos int
	// values holds a categorical split's present values in sweep order.
	values []int
	gain   float64
	valid  bool
}

// leftValues returns a categorical split's left value set over the
// attribute's card values.
func (s split) leftValues(card int) []bool {
	lv := make([]bool, card)
	for _, v := range s.values[:s.pos] {
		lv[v] = true
	}
	return lv
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

// bestCategoricalFromAVC orders the present values of the AVC-set in sc
// by proportion of class 0 and evaluates every prefix as the left value
// set — the Breiman ordering that is optimal for binary classes. It is
// shared by the naive builder and the engine so the two compute
// bit-identical gains from equal AVCs; the engine's AVCs hold weighted
// counts, which are the same integers. The winning prefix is returned as
// the first pos of values, which alias sc.present.
func bestCategoricalFromAVC(attr int, sc *attrScratch, counts []int, n, k int, parent float64, minLeaf int) split {
	avc, totals := sc.avc, sc.totals
	present := sc.present[:0]
	for v, t := range totals {
		if t > 0 {
			present = append(present, v)
		}
	}
	sc.present = present
	if len(present) < 2 {
		return split{}
	}
	slices.SortFunc(present, func(a, c int) int {
		pa := float64(avc[a*k]) / float64(totals[a])
		pc := float64(avc[c*k]) / float64(totals[c])
		return cmp.Or(cmp.Compare(pa, pc), cmp.Compare(a, c))
	})

	left, right := sc.left, sc.right
	clear(left)
	copy(right, counts)
	nl := 0
	best := split{attr: attr, values: present}
	for i := 0; i < len(present)-1; i++ {
		v := present[i]
		for c, cc := range avc[v*k : (v+1)*k] {
			left[c] += cc
			right[c] -= cc
		}
		nl += totals[v]
		nr := n - nl
		if nl < minLeaf || nr < minLeaf {
			continue
		}
		w := parent - (float64(nl)*gini(left, nl)+float64(nr)*gini(right, nr))/float64(n)
		if !best.valid || w > best.gain {
			best.valid = true
			best.gain = w
			best.pos = i + 1
		}
	}
	return best
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
