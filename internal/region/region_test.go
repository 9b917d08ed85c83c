package region

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"focus/internal/dataset"
)

func testSchema() *dataset.Schema {
	return dataset.NewClassSchema(2,
		dataset.Attribute{Name: "age", Kind: dataset.Numeric, Min: 0, Max: 100},
		dataset.Attribute{Name: "color", Kind: dataset.Categorical, Values: []string{"r", "g", "b"}},
		dataset.Attribute{Name: "class", Kind: dataset.Categorical, Values: []string{"A", "B"}},
	)
}

func TestFullContainsEverything(t *testing.T) {
	s := testSchema()
	b := Full(s)
	for _, tu := range []dataset.Tuple{{0, 0, 0}, {100, 2, 1}, {50, 1, 0}} {
		if !b.Contains(tu) {
			t.Errorf("Full box does not contain %v", tu)
		}
	}
	if b.Empty() {
		t.Error("Full box reported empty")
	}
	if b.String() != "true" {
		t.Errorf("Full box String = %q, want \"true\"", b.String())
	}
}

func TestConstrainUpperLower(t *testing.T) {
	s := testSchema()
	b := Full(s).ConstrainUpper(0, 30) // age <= 30
	if !b.Contains(dataset.Tuple{30, 0, 0}) {
		t.Error("upper bound should be inclusive")
	}
	if b.Contains(dataset.Tuple{30.001, 0, 0}) {
		t.Error("value above upper bound contained")
	}
	c := Full(s).ConstrainLower(0, 30) // age > 30
	if c.Contains(dataset.Tuple{30, 0, 0}) {
		t.Error("lower bound should be exclusive")
	}
	if !c.Contains(dataset.Tuple{30.001, 0, 0}) {
		t.Error("value above lower bound not contained")
	}
	// Narrowing only: constraining looser than current keeps the bound.
	d := b.ConstrainUpper(0, 50)
	if d.Hi[0] != 30 {
		t.Errorf("ConstrainUpper widened the box to %v", d.Hi[0])
	}
}

func TestConstrainCatsAndClass(t *testing.T) {
	s := testSchema()
	b := Full(s).ConstrainCats(1, []bool{true, false, true}) // color in {r,b}
	if !b.Contains(dataset.Tuple{1, 0, 0}) || !b.Contains(dataset.Tuple{1, 2, 0}) {
		t.Error("allowed categorical values rejected")
	}
	if b.Contains(dataset.Tuple{1, 1, 0}) {
		t.Error("disallowed categorical value contained")
	}
	// Further restriction intersects value sets.
	c := b.ConstrainCats(1, []bool{true, true, false})
	if !c.Contains(dataset.Tuple{1, 0, 0}) || c.Contains(dataset.Tuple{1, 2, 0}) {
		t.Error("ConstrainCats did not intersect value sets")
	}
	// Class constraint.
	cl := Full(s).ConstrainClass(1)
	if cl.Contains(dataset.Tuple{1, 0, 0}) || !cl.Contains(dataset.Tuple{1, 0, 1}) {
		t.Error("ConstrainClass wrong")
	}
}

func TestIntersect(t *testing.T) {
	s := testSchema()
	a := Full(s).ConstrainUpper(0, 50)
	b := Full(s).ConstrainLower(0, 30)
	c := a.Intersect(b) // 30 < age <= 50
	if c == nil {
		t.Fatal("overlapping boxes intersected to nil")
	}
	if !c.Contains(dataset.Tuple{40, 0, 0}) || c.Contains(dataset.Tuple{20, 0, 0}) || c.Contains(dataset.Tuple{60, 0, 0}) {
		t.Error("intersection bounds wrong")
	}
	// Disjoint numeric ranges.
	d := Full(s).ConstrainUpper(0, 30).Intersect(Full(s).ConstrainLower(0, 50))
	if d != nil {
		t.Error("disjoint boxes intersected to non-nil")
	}
	// Disjoint categorical sets.
	e := Full(s).ConstrainCats(1, []bool{true, false, false}).
		Intersect(Full(s).ConstrainCats(1, []bool{false, true, false}))
	if e != nil {
		t.Error("categorically disjoint boxes intersected to non-nil")
	}
}

// Property: t ∈ a∩b iff t ∈ a and t ∈ b.
func TestIntersectContainmentProperty(t *testing.T) {
	s := testSchema()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() *Box {
			b := Full(s)
			if rng.Intn(2) == 0 {
				b = b.ConstrainUpper(0, float64(rng.Intn(100)))
			}
			if rng.Intn(2) == 0 {
				b = b.ConstrainLower(0, float64(rng.Intn(100)))
			}
			if rng.Intn(2) == 0 {
				b = b.ConstrainCats(1, []bool{rng.Intn(2) == 0, rng.Intn(2) == 0, true})
			}
			return b
		}
		a, bb := mk(), mk()
		c := a.Intersect(bb)
		for i := 0; i < 50; i++ {
			tu := dataset.Tuple{float64(rng.Intn(101)), float64(rng.Intn(3)), float64(rng.Intn(2))}
			want := a.Contains(tu) && bb.Contains(tu)
			got := c != nil && c.Contains(tu)
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEmpty(t *testing.T) {
	s := testSchema()
	if Full(s).ConstrainUpper(0, 10).Empty() {
		t.Error("non-empty box reported empty")
	}
	b := Full(s)
	b.Lo[0], b.Hi[0] = 5, 5 // (5,5] is empty
	if !b.Empty() {
		t.Error("empty interval not detected")
	}
	c := Full(s).ConstrainCats(1, []bool{false, false, false})
	if !c.Empty() {
		t.Error("empty categorical set not detected")
	}
}

func TestEqual(t *testing.T) {
	s := testSchema()
	a := Full(s).ConstrainUpper(0, 30)
	b := Full(s).ConstrainUpper(0, 30)
	if !a.Equal(b) {
		t.Error("identical boxes unequal")
	}
	c := Full(s).ConstrainUpper(0, 31)
	if a.Equal(c) {
		t.Error("different numeric bounds equal")
	}
	// nil Cats means all allowed: equal to an explicit all-true set.
	d := Full(s).ConstrainCats(1, []bool{true, true, true})
	if !Full(s).Equal(d) {
		t.Error("nil cats != explicit all-true cats")
	}
	e := Full(s).ConstrainCats(1, []bool{true, true, false})
	if Full(s).Equal(e) {
		t.Error("restricted cats equal to full")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := testSchema()
	a := Full(s).ConstrainCats(1, []bool{true, false, true})
	b := a.Clone()
	b.Hi[0] = 10
	b.Cats[1][1] = true
	if a.Hi[0] == 10 || a.Cats[1][1] {
		t.Error("Clone shares storage")
	}
}

func TestString(t *testing.T) {
	s := testSchema()
	b := Full(s).ConstrainUpper(0, 30).ConstrainCats(1, []bool{true, false, false})
	str := b.String()
	if !strings.Contains(str, "age <= 30") || !strings.Contains(str, "color in {r}") {
		t.Errorf("String = %q", str)
	}
	c := Full(s).ConstrainLower(0, 10).ConstrainUpper(0, 20)
	if !strings.Contains(c.String(), "10 < age <= 20") {
		t.Errorf("String = %q", c.String())
	}
	d := Full(s).ConstrainLower(0, 10)
	if !strings.Contains(d.String(), "age > 10") {
		t.Errorf("String = %q", d.String())
	}
}

func TestContainsHandlesInfiniteBounds(t *testing.T) {
	s := testSchema()
	b := Full(s)
	if b.Lo[0] != math.Inf(-1) || b.Hi[0] != math.Inf(1) {
		t.Error("Full box numeric bounds not infinite")
	}
	if !b.Contains(dataset.Tuple{-1e300, 0, 0}) {
		t.Error("huge negative value not contained in full box")
	}
}

func TestIntersectPanicsAcrossSchemas(t *testing.T) {
	other := dataset.NewSchema(dataset.Attribute{Name: "x", Kind: dataset.Numeric, Min: 0, Max: 1})
	defer func() {
		if recover() == nil {
			t.Error("cross-schema intersect did not panic")
		}
	}()
	Full(testSchema()).Intersect(Full(other))
}

// Overlaps must decide exactly what Intersect decides. Bounds come from a
// small grid so boxes often touch (Lo == Hi after intersecting), and
// categorical constraints range over nil, all-false and random sets.
func TestOverlapsMatchesIntersect(t *testing.T) {
	s := dataset.NewClassSchema(3,
		dataset.Attribute{Name: "x", Kind: dataset.Numeric, Min: 0, Max: 30},
		dataset.Attribute{Name: "color", Kind: dataset.Categorical, Values: []string{"r", "g", "b"}},
		dataset.Attribute{Name: "y", Kind: dataset.Numeric, Min: 0, Max: 30},
		dataset.Attribute{Name: "class", Kind: dataset.Categorical, Values: []string{"A", "B"}},
	)
	grid := []float64{math.Inf(-1), 0, 10, 20, 30, math.Inf(1)}
	rng := rand.New(rand.NewSource(41))
	randomBox := func() *Box {
		b := Full(s)
		for i := range s.Attrs {
			if s.Attrs[i].Kind == dataset.Numeric {
				lo, hi := grid[rng.Intn(len(grid))], grid[rng.Intn(len(grid))]
				if lo > hi {
					lo, hi = hi, lo
				}
				b.Lo[i], b.Hi[i] = lo, hi
				continue
			}
			switch rng.Intn(4) {
			case 0: // nil: every value
			case 1:
				b.Cats[i] = make([]bool, s.Attrs[i].Cardinality())
			default:
				cs := make([]bool, s.Attrs[i].Cardinality())
				for v := range cs {
					cs[v] = rng.Intn(2) == 0
				}
				b.Cats[i] = cs
			}
		}
		return b
	}
	var overlapping, touching int
	for trial := 0; trial < 20000; trial++ {
		a, b := randomBox(), randomBox()
		want := a.Intersect(b) != nil
		if got := a.Overlaps(b); got != want {
			t.Fatalf("trial %d: Overlaps(%v, %v) = %v, Intersect non-nil = %v", trial, a, b, got, want)
		}
		if want {
			overlapping++
		}
		if a.Hi[0] == b.Lo[0] || a.Lo[0] == b.Hi[0] {
			touching++
		}
	}
	if overlapping == 0 || overlapping == 20000 || touching == 0 {
		t.Fatalf("degenerate trials: %d overlapping, %d touching", overlapping, touching)
	}
}
