// Package dtree implements the decision-tree classifier substrate for
// dt-models: a CART-style builder (Breiman et al., 1984) with gini splits
// over numeric and categorical attributes, driven RainForest-style by
// per-node AVC statistics (Gehrke, Ramakrishnan & Ganti, VLDB 1998). The
// paper builds its dt-models with exactly this combination (Section 6.1.2).
//
// In FOCUS terms (Section 2.1), each leaf of a tree over k classes induces k
// regions of the attribute space — the leaf's box, one copy per class label —
// and the set of regions over all leaves partitions the attribute space.
package dtree

import (
	"fmt"
	"math"
	"strings"

	"focus/internal/dataset"
	"focus/internal/region"
)

// Node is one node of a decision tree. Internal nodes hold a split; leaves
// hold the class histogram of the training tuples they received.
type Node struct {
	// Split (internal nodes only). A tuple goes Left when
	// t[Attr] <= Threshold (numeric) or LeftValues[t[Attr]] (categorical).
	Attr       int
	Threshold  float64
	LeftValues []bool
	Left       *Node
	Right      *Node

	// Leaf payload.
	LeafID      int   // dense id in [0, NumLeaves), -1 for internal nodes
	ClassCounts []int // training class histogram (leaves only)
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Left == nil }

// Tree is a decision tree classifier over a classification schema.
type Tree struct {
	Schema *dataset.Schema
	Root   *Node

	numLeaves int
	leaves    []*Node // indexed by LeafID
}

// NewTree assembles a tree from a hand-built node structure (used to
// reproduce the paper's worked examples, in tests, and by DecodeBinary),
// numbering leaves in DFS order. Internal nodes must have both children set,
// split on a non-class attribute of the schema at a finite threshold, and
// carry a value set of the attribute's cardinality when it is categorical;
// leaves must carry a non-negative class histogram of the schema's class
// cardinality. Anything else is an error, never a panic.
func NewTree(s *dataset.Schema, root *Node) (*Tree, error) {
	if s.Class < 0 {
		return nil, fmt.Errorf("dtree: schema has no class attribute")
	}
	if root == nil {
		return nil, fmt.Errorf("dtree: tree has no root")
	}
	t := &Tree{Schema: s, Root: root}
	var err error
	var number func(n *Node)
	number = func(n *Node) {
		if err != nil {
			return
		}
		if n.IsLeaf() {
			if n.Right != nil {
				err = fmt.Errorf("dtree: node with only a right child")
				return
			}
			if len(n.ClassCounts) != s.NumClasses() {
				err = fmt.Errorf("dtree: leaf histogram has %d classes, schema has %d", len(n.ClassCounts), s.NumClasses())
				return
			}
			for c, v := range n.ClassCounts {
				if v < 0 {
					err = fmt.Errorf("dtree: leaf histogram holds %d tuples of class %d", v, c)
					return
				}
			}
			n.LeafID = len(t.leaves)
			t.leaves = append(t.leaves, n)
			return
		}
		if n.Right == nil {
			err = fmt.Errorf("dtree: node with only a left child")
			return
		}
		if n.Attr < 0 || n.Attr >= len(s.Attrs) {
			err = fmt.Errorf("dtree: split on attribute %d, schema has %d", n.Attr, len(s.Attrs))
			return
		}
		if n.Attr == s.Class {
			err = fmt.Errorf("dtree: split on the class attribute")
			return
		}
		if math.IsNaN(n.Threshold) || math.IsInf(n.Threshold, 0) {
			err = fmt.Errorf("dtree: split threshold %v is not finite", n.Threshold)
			return
		}
		if s.Attrs[n.Attr].Kind == dataset.Categorical && len(n.LeftValues) != s.Attrs[n.Attr].Cardinality() {
			err = fmt.Errorf("dtree: categorical split value set has wrong cardinality")
			return
		}
		n.LeafID = -1
		number(n.Left)
		number(n.Right)
	}
	number(root)
	if err != nil {
		return nil, err
	}
	t.numLeaves = len(t.leaves)
	return t, nil
}

// NumLeaves returns the number of leaves.
func (t *Tree) NumLeaves() int { return t.numLeaves }

// NumClasses returns the number of class labels.
func (t *Tree) NumClasses() int { return t.Schema.NumClasses() }

// route returns the leaf node a tuple reaches.
func (t *Tree) route(x dataset.Tuple) *Node {
	n := t.Root
	for !n.IsLeaf() {
		if t.Schema.Attrs[n.Attr].Kind == dataset.Numeric {
			if x[n.Attr] <= n.Threshold {
				n = n.Left
			} else {
				n = n.Right
			}
			continue
		}
		v := int(x[n.Attr])
		if v >= 0 && v < len(n.LeftValues) && n.LeftValues[v] {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n
}

// LeafID returns the dense id of the leaf tuple x reaches. Leaf ids identify
// the cells of the partition the tree induces; routing a tuple down two
// trees yields its GCR region as the (LeafID1, LeafID2) pair.
func (t *Tree) LeafID(x dataset.Tuple) int { return t.route(x).LeafID }

// Predict returns the majority class of the leaf tuple x reaches. Ties break
// toward the smaller class index.
func (t *Tree) Predict(x dataset.Tuple) int {
	counts := t.route(x).ClassCounts
	best, bestC := 0, counts[0]
	for c := 1; c < len(counts); c++ {
		if counts[c] > bestC {
			best, bestC = c, counts[c]
		}
	}
	return best
}

// Leaf describes one leaf as a region of the attribute space (without the
// class-label dimension; see Tree.Regions for per-class regions).
type Leaf struct {
	ID     int
	Box    *region.Box
	Counts []int // training class histogram
}

// Leaves returns the leaves in LeafID order with their boxes. Boxes are
// derived by walking from the root and narrowing a full box at each split,
// so they partition the attribute space.
func (t *Tree) Leaves() []Leaf {
	out := make([]Leaf, t.numLeaves)
	var walk func(n *Node, b *region.Box)
	walk = func(n *Node, b *region.Box) {
		if n.IsLeaf() {
			out[n.LeafID] = Leaf{ID: n.LeafID, Box: b, Counts: n.ClassCounts}
			return
		}
		if t.Schema.Attrs[n.Attr].Kind == dataset.Numeric {
			walk(n.Left, b.ConstrainUpper(n.Attr, n.Threshold))
			walk(n.Right, b.ConstrainLower(n.Attr, n.Threshold))
			return
		}
		rightValues := make([]bool, len(n.LeftValues))
		for v := range n.LeftValues {
			rightValues[v] = !n.LeftValues[v]
		}
		walk(n.Left, b.ConstrainCats(n.Attr, n.LeftValues))
		walk(n.Right, b.ConstrainCats(n.Attr, rightValues))
	}
	walk(t.Root, region.Full(t.Schema))
	return out
}

// MisclassificationError returns ME_T(D): the fraction of tuples of d whose
// true class differs from the tree's prediction (Section 5.2.1).
func (t *Tree) MisclassificationError(d *dataset.Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	wrong := 0
	for _, x := range d.Tuples {
		if t.Predict(x) != x.Class(d.Schema) {
			wrong++
		}
	}
	return float64(wrong) / float64(d.Len())
}

// PredictedDataset returns D^T: a copy of d with every tuple's class label
// replaced by the tree's prediction (Section 5.2.1).
func (t *Tree) PredictedDataset(d *dataset.Dataset) *dataset.Dataset {
	out := dataset.New(d.Schema)
	out.Tuples = make([]dataset.Tuple, d.Len())
	for i, x := range d.Tuples {
		out.Tuples[i] = x.WithClass(d.Schema, t.Predict(x))
	}
	return out
}

// String renders the tree with indentation, class histograms at leaves.
func (t *Tree) String() string {
	var b strings.Builder
	var walk func(n *Node, depth int, label string)
	walk = func(n *Node, depth int, label string) {
		indent := strings.Repeat("  ", depth)
		if n.IsLeaf() {
			fmt.Fprintf(&b, "%s%sleaf#%d %v\n", indent, label, n.LeafID, n.ClassCounts)
			return
		}
		a := &t.Schema.Attrs[n.Attr]
		if a.Kind == dataset.Numeric {
			fmt.Fprintf(&b, "%s%s%s <= %g?\n", indent, label, a.Name, n.Threshold)
		} else {
			var vals []string
			for v, ok := range n.LeftValues {
				if ok {
					vals = append(vals, a.Values[v])
				}
			}
			fmt.Fprintf(&b, "%s%s%s in {%s}?\n", indent, label, a.Name, strings.Join(vals, ","))
		}
		walk(n.Left, depth+1, "yes: ")
		walk(n.Right, depth+1, "no:  ")
	}
	walk(t.Root, 0, "")
	return b.String()
}
