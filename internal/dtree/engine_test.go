package dtree

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"focus/internal/classgen"
	"focus/internal/dataset"
)

// treeDiff returns "" when two trees are bit-identical (structure,
// split attributes, thresholds, value sets, leaf ids and class
// histograms), or a description of the first difference.
func treeDiff(a, b *Tree) string {
	if a.NumLeaves() != b.NumLeaves() {
		return fmt.Sprintf("leaf counts differ: %d vs %d", a.NumLeaves(), b.NumLeaves())
	}
	var diff func(x, y *Node, path string) string
	diff = func(x, y *Node, path string) string {
		if x.IsLeaf() != y.IsLeaf() {
			return fmt.Sprintf("%s: leaf vs internal", path)
		}
		if x.IsLeaf() {
			if x.LeafID != y.LeafID {
				return fmt.Sprintf("%s: leaf id %d vs %d", path, x.LeafID, y.LeafID)
			}
			if len(x.ClassCounts) != len(y.ClassCounts) {
				return fmt.Sprintf("%s: histogram arity %d vs %d", path, len(x.ClassCounts), len(y.ClassCounts))
			}
			for c := range x.ClassCounts {
				if x.ClassCounts[c] != y.ClassCounts[c] {
					return fmt.Sprintf("%s: class %d count %d vs %d", path, c, x.ClassCounts[c], y.ClassCounts[c])
				}
			}
			return ""
		}
		if x.Attr != y.Attr {
			return fmt.Sprintf("%s: split attr %d vs %d", path, x.Attr, y.Attr)
		}
		if x.Threshold != y.Threshold {
			return fmt.Sprintf("%s: threshold %v vs %v", path, x.Threshold, y.Threshold)
		}
		if len(x.LeftValues) != len(y.LeftValues) {
			return fmt.Sprintf("%s: left value set arity differs", path)
		}
		for v := range x.LeftValues {
			if x.LeftValues[v] != y.LeftValues[v] {
				return fmt.Sprintf("%s: left value %d differs", path, v)
			}
		}
		if d := diff(x.Left, y.Left, path+"L"); d != "" {
			return d
		}
		return diff(x.Right, y.Right, path+"R")
	}
	return diff(a.Root, b.Root, "root:")
}

// The differential schemas: numeric-only (three classes), categorical-only
// and mixed, covering every split-search code path.
func numericSchema() *dataset.Schema {
	return dataset.NewClassSchema(3,
		dataset.Attribute{Name: "a", Kind: dataset.Numeric, Min: 0, Max: 1},
		dataset.Attribute{Name: "b", Kind: dataset.Numeric, Min: 0, Max: 1},
		dataset.Attribute{Name: "c", Kind: dataset.Numeric, Min: 0, Max: 1},
		dataset.Attribute{Name: "class", Kind: dataset.Categorical, Values: []string{"0", "1", "2"}},
	)
}

func categoricalSchema() *dataset.Schema {
	return dataset.NewClassSchema(2,
		dataset.Attribute{Name: "p", Kind: dataset.Categorical, Values: []string{"a", "b", "c", "d"}},
		dataset.Attribute{Name: "q", Kind: dataset.Categorical, Values: []string{"u", "v", "w", "x", "y", "z"}},
		dataset.Attribute{Name: "class", Kind: dataset.Categorical, Values: []string{"0", "1"}},
	)
}

func mixedSchema() *dataset.Schema {
	return dataset.NewClassSchema(4,
		dataset.Attribute{Name: "a", Kind: dataset.Numeric, Min: 0, Max: 1},
		dataset.Attribute{Name: "p", Kind: dataset.Categorical, Values: []string{"a", "b", "c", "d", "e"}},
		dataset.Attribute{Name: "b", Kind: dataset.Numeric, Min: 0, Max: 1},
		dataset.Attribute{Name: "q", Kind: dataset.Categorical, Values: []string{"u", "v", "w"}},
		dataset.Attribute{Name: "class", Kind: dataset.Categorical, Values: []string{"0", "1"}},
	)
}

// randomDataset draws n tuples over s with heavy value duplication on
// numeric attributes (quantized draws), so the sweeps hit equal-value runs
// and MinLeaf boundaries, and a class label correlated with the first
// attribute so trees actually grow.
func randomDataset(s *dataset.Schema, n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	k := s.NumClasses()
	d := dataset.New(s)
	for i := 0; i < n; i++ {
		t := make(dataset.Tuple, len(s.Attrs))
		for a := range s.Attrs {
			if a == s.Class {
				continue
			}
			if s.Attrs[a].Kind == dataset.Numeric {
				if rng.Intn(2) == 0 {
					t[a] = float64(rng.Intn(7)) / 7 // duplicated quantized values
				} else {
					t[a] = rng.Float64()
				}
			} else {
				t[a] = float64(rng.Intn(s.Attrs[a].Cardinality()))
			}
		}
		cls := rng.Intn(k)
		if rng.Float64() < 0.7 { // signal: class follows the first attribute
			if s.Attrs[0].Kind == dataset.Numeric {
				cls = int(t[0]*float64(k)) % k
			} else {
				cls = int(t[0]) % k
			}
		}
		t[s.Class] = float64(cls)
		d.Add(t)
	}
	return d
}

// TestExactBitIdenticalToNaive is the randomized differential harness: the
// presorted-attribute-list engine in exact mode must reproduce the
// reference builder bit-for-bit across schemas, sizes, growth configs and
// parallelism (0 = process default, 1 = serial, 4 = fixed fan-out).
func TestExactBitIdenticalToNaive(t *testing.T) {
	schemas := map[string]*dataset.Schema{
		"numeric":     numericSchema(),
		"categorical": categoricalSchema(),
		"mixed":       mixedSchema(),
	}
	configs := []Config{
		{},
		{MaxDepth: 4, MinLeaf: 2},
		{MaxDepth: 8, MinLeaf: 5, MinGain: 0.001},
		{MaxDepth: 3, MinLeaf: 1, MinGain: 0.01},
	}
	for name, s := range schemas {
		for _, n := range []int{40, 300, 1200} {
			d := randomDataset(s, n, int64(n)+int64(len(name)))
			for ci, cfg := range configs {
				want, err := BuildNaive(d, cfg)
				if err != nil {
					t.Fatalf("%s/n=%d/cfg=%d: naive: %v", name, n, ci, err)
				}
				for _, par := range []int{0, 1, 4} {
					got, err := BuildP(d, cfg, par)
					if err != nil {
						t.Fatalf("%s/n=%d/cfg=%d/par=%d: %v", name, n, ci, par, err)
					}
					if diff := treeDiff(want, got); diff != "" {
						t.Errorf("%s/n=%d/cfg=%d/par=%d: exact engine differs from naive: %s", name, n, ci, par, diff)
					}
				}
			}
		}
	}
}

// TestExactBitIdenticalOnClassgen pins the equivalence on the paper's
// synthetic person data (the Fig10-14 workload shape).
func TestExactBitIdenticalOnClassgen(t *testing.T) {
	d, err := classgen.Generate(classgen.Config{NumTuples: 3000, Function: classgen.F2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MaxDepth: 8, MinLeaf: 50}
	want, err := BuildNaive(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{0, 1, 4} {
		got, err := BuildP(d, cfg, par)
		if err != nil {
			t.Fatal(err)
		}
		if diff := treeDiff(want, got); diff != "" {
			t.Errorf("par=%d: %s", par, diff)
		}
	}
}

// ulpDataset puts MinLeaf-sized class-pure clumps on ulp-adjacent values
// chosen so the unfixed midpoint rounds up to the right value: v is one
// ulp below 1.0 (odd mantissa), w is 1.0 (even mantissa), and the exact
// midpoint ties, so round-to-even lands on w.
func ulpDataset(t *testing.T, perSide int) *dataset.Dataset {
	t.Helper()
	w := 1.0
	v := math.Nextafter(w, 0)
	if mid := v + (w-v)/2; mid != w {
		t.Fatalf("test premise broken: midpoint %v does not round up to %v", mid, w)
	}
	s := dataset.NewClassSchema(1,
		dataset.Attribute{Name: "x", Kind: dataset.Numeric, Min: 0, Max: 2},
		dataset.Attribute{Name: "class", Kind: dataset.Categorical, Values: []string{"0", "1"}},
	)
	d := dataset.New(s)
	for i := 0; i < perSide; i++ {
		d.Add(dataset.Tuple{v, 0}, dataset.Tuple{w, 1})
	}
	return d
}

// TestUlpAdjacentCutRegression pins the bestNumericSplit rounding fix: on
// ulp-adjacent values the buggy midpoint equals the right value, routing
// both clumps left — the realized partition disagrees with the swept
// counts, the realized-MinLeaf guard fires, and a perfectly separable
// dataset degenerates to a root stump. The fixed cut falls back to the
// left value and the split lands.
func TestUlpAdjacentCutRegression(t *testing.T) {
	d := ulpDataset(t, 10)
	for name, build := range map[string]func(*dataset.Dataset, Config) (*Tree, error){
		"naive": BuildNaive,
		"fast":  Build,
	} {
		tree, err := build(d, Config{MaxDepth: 2, MinLeaf: 5})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tree.NumLeaves() != 2 {
			t.Fatalf("%s: ulp-adjacent split not found: %d leaves, want 2\n%s", name, tree.NumLeaves(), tree)
		}
		if me := tree.MisclassificationError(d); me != 0 {
			t.Errorf("%s: ME = %v on a separable dataset, want 0", name, me)
		}
		// The chosen threshold must realize the swept partition: strictly
		// below the right value.
		if th := tree.Root.Threshold; !(th < 1.0) {
			t.Errorf("%s: threshold %v does not separate the ulp-adjacent pair", name, th)
		}
	}
}

// realizedCounts routes every training tuple down the tree and returns the
// number reaching each node (keyed by node pointer) — the independent
// ground truth for the MinLeaf property, not derived from ClassCounts.
func realizedCounts(tr *Tree, d *dataset.Dataset) map[*Node]int {
	reach := make(map[*Node]int)
	for _, tu := range d.Tuples {
		n := tr.Root
		for {
			reach[n]++
			if n.IsLeaf() {
				break
			}
			if tr.Schema.Attrs[n.Attr].Kind == dataset.Numeric {
				if tu[n.Attr] <= n.Threshold {
					n = n.Left
				} else {
					n = n.Right
				}
			} else {
				v := int(tu[n.Attr])
				if v >= 0 && v < len(n.LeftValues) && n.LeftValues[v] {
					n = n.Left
				} else {
					n = n.Right
				}
			}
		}
	}
	return reach
}

// TestSplitsHonourMinLeafRealized is the property test: every emitted
// split must leave at least MinLeaf training tuples on BOTH realized
// children — realized by re-routing the data through the split predicates,
// so a threshold that disagrees with the swept counts (the rounding bug)
// cannot hide behind consistent-looking histograms.
func TestSplitsHonourMinLeafRealized(t *testing.T) {
	type tc struct {
		name string
		d    *dataset.Dataset
		cfg  Config
	}
	cases := []tc{
		{"mixed", randomDataset(mixedSchema(), 900, 31), Config{MaxDepth: 8, MinLeaf: 7}},
		{"numeric", randomDataset(numericSchema(), 700, 32), Config{MaxDepth: 10, MinLeaf: 3}},
		{"ulp", ulpDataset(t, 12), Config{MaxDepth: 4, MinLeaf: 5}},
	}
	for _, c := range cases {
		for name, build := range map[string]func(*dataset.Dataset, Config) (*Tree, error){
			"naive": BuildNaive,
			"fast":  Build,
		} {
			tree, err := build(c.d, c.cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, name, err)
			}
			reach := realizedCounts(tree, c.d)
			var walk func(n *Node)
			walk = func(n *Node) {
				if n.IsLeaf() {
					return
				}
				if reach[n.Left] < c.cfg.MinLeaf || reach[n.Right] < c.cfg.MinLeaf {
					t.Errorf("%s/%s: split on attr %d realizes children %d/%d, MinLeaf %d",
						c.name, name, n.Attr, reach[n.Left], reach[n.Right], c.cfg.MinLeaf)
				}
				walk(n.Left)
				walk(n.Right)
			}
			walk(tree.Root)
			// Leaf histograms must agree with the realized routing.
			for _, lf := range tree.Leaves() {
				total := 0
				for _, cc := range lf.Counts {
					total += cc
				}
				if got := reach[tree.leaves[lf.ID]]; got != total {
					t.Errorf("%s/%s: leaf %d histogram sums to %d, routing reaches %d", c.name, name, lf.ID, total, got)
				}
			}
		}
	}
}

// TestBuildRejectsNaN pins the NaN guard: programmatic datasets bypass the
// decoders' validation, and a NaN silently breaks sort comparators.
func TestBuildRejectsNaN(t *testing.T) {
	s := numericSchema()
	d := randomDataset(s, 50, 41)
	d.Tuples[17][1] = math.NaN()
	for name, build := range map[string]func(*dataset.Dataset, Config) (*Tree, error){
		"naive": BuildNaive,
		"fast":  Build,
	} {
		_, err := build(d, Config{MinLeaf: 2})
		if err == nil {
			t.Fatalf("%s: NaN attribute accepted", name)
		}
		if !strings.Contains(err.Error(), "NaN") || !strings.Contains(err.Error(), "tuple 17") {
			t.Errorf("%s: error %q does not diagnose the NaN location", name, err)
		}
	}
}

// TestConfigValidation pins the negative-value errors: a negative MaxDepth
// used to silently yield a root-only stump, and MinGain's zero-value
// defaulting is now documented rather than surprising.
func TestConfigValidation(t *testing.T) {
	d := randomDataset(mixedSchema(), 60, 43)
	bad := []Config{
		{MaxDepth: -1},
		{MinLeaf: -2},
		{MinGain: -0.5},
	}
	for i, cfg := range bad {
		if _, err := Build(d, cfg); err == nil {
			t.Errorf("config %d (%+v) accepted", i, cfg)
		}
		if _, err := BuildNaive(d, cfg); err == nil {
			t.Errorf("config %d (%+v) accepted by naive builder", i, cfg)
		}
	}
	// Zero values still select the documented defaults.
	if _, err := Build(d, Config{}); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}
