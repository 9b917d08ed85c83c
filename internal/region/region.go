// Package region provides the geometric region abstraction of the FOCUS
// framework (Definition 3.1): a region is a subset of the attribute space
// A(I) identified by a predicate. Decision-tree leaves, cluster regions, and
// focussing regions are all axis-aligned boxes — conjunctions of per-
// attribute constraints — which makes intersection (the GCR overlay
// operation of Definition 4.2 and the focus operation of Definition 5.1)
// closed and cheap.
package region

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"focus/internal/dataset"
)

// Box is an axis-aligned region: for each numeric attribute a half-open
// interval (Lo, Hi], and for each categorical attribute a set of allowed
// values. A nil Cats entry admits every value of that attribute. Class
// attributes are treated like any categorical attribute, which is how
// dt-model regions carry their class label (Section 2.1).
type Box struct {
	schema *dataset.Schema
	Lo, Hi []float64 // numeric bounds, (Lo, Hi]; ignored for categorical attrs
	Cats   [][]bool  // allowed categorical values; nil = all
}

// Full returns the box covering the whole attribute space of s.
func Full(s *dataset.Schema) *Box {
	b := &Box{
		schema: s,
		Lo:     make([]float64, len(s.Attrs)),
		Hi:     make([]float64, len(s.Attrs)),
		Cats:   make([][]bool, len(s.Attrs)),
	}
	for i := range s.Attrs {
		if s.Attrs[i].Kind == dataset.Numeric {
			b.Lo[i] = math.Inf(-1)
			b.Hi[i] = math.Inf(1)
		}
	}
	return b
}

// Schema returns the schema the box is defined over.
func (b *Box) Schema() *dataset.Schema { return b.schema }

// Clone returns a deep copy of the box.
func (b *Box) Clone() *Box {
	c := &Box{
		schema: b.schema,
		Lo:     append([]float64(nil), b.Lo...),
		Hi:     append([]float64(nil), b.Hi...),
		Cats:   make([][]bool, len(b.Cats)),
	}
	for i, cs := range b.Cats {
		if cs != nil {
			c.Cats[i] = append([]bool(nil), cs...)
		}
	}
	return c
}

// Contains reports whether tuple t lies in the box.
func (b *Box) Contains(t dataset.Tuple) bool {
	for i := range b.schema.Attrs {
		if b.schema.Attrs[i].Kind == dataset.Numeric {
			if !(t[i] > b.Lo[i] && t[i] <= b.Hi[i]) {
				return false
			}
			continue
		}
		if cs := b.Cats[i]; cs != nil {
			v := int(t[i])
			if v < 0 || v >= len(cs) || !cs[v] {
				return false
			}
		}
	}
	return true
}

// Predicate returns the region's characteristic function P_rho
// (Definition 3.1).
func (b *Box) Predicate() func(dataset.Tuple) bool {
	return b.Contains
}

// ConstrainUpper returns a copy of the box with attribute attr additionally
// constrained to values <= hi (the left child of a numeric split "attr <= hi").
func (b *Box) ConstrainUpper(attr int, hi float64) *Box {
	c := b.Clone()
	if hi < c.Hi[attr] {
		c.Hi[attr] = hi
	}
	return c
}

// ConstrainLower returns a copy of the box with attribute attr additionally
// constrained to values > lo (the right child of a numeric split "attr <= lo").
func (b *Box) ConstrainLower(attr int, lo float64) *Box {
	c := b.Clone()
	if lo > c.Lo[attr] {
		c.Lo[attr] = lo
	}
	return c
}

// ConstrainCats returns a copy of the box with categorical attribute attr
// restricted to the values allowed by both the box and the given set.
func (b *Box) ConstrainCats(attr int, allowed []bool) *Box {
	c := b.Clone()
	if c.Cats[attr] == nil {
		c.Cats[attr] = append([]bool(nil), allowed...)
		return c
	}
	for v := range c.Cats[attr] {
		c.Cats[attr][v] = c.Cats[attr][v] && v < len(allowed) && allowed[v]
	}
	return c
}

// ConstrainClass returns a copy of the box restricted to a single class
// label — the per-class regions a decision-tree leaf induces (Section 2.1).
func (b *Box) ConstrainClass(class int) *Box {
	k := b.schema.NumClasses()
	if k == 0 {
		panic("region: schema has no class attribute")
	}
	allowed := make([]bool, k)
	allowed[class] = true
	return b.ConstrainCats(b.schema.Class, allowed)
}

// Intersect returns the intersection of two boxes over the same schema, or
// nil when it is empty. This is the pairwise "anding" of predicates that
// forms the GCR of two dt-models (Definition 4.2) and the focussing
// intersection of Definition 5.1.
func (b *Box) Intersect(o *Box) *Box {
	if b.schema != o.schema && !b.schema.Equal(o.schema) {
		panic("region: intersecting boxes over different schemas")
	}
	c := b.Clone()
	for i := range c.schema.Attrs {
		if c.schema.Attrs[i].Kind == dataset.Numeric {
			if o.Lo[i] > c.Lo[i] {
				c.Lo[i] = o.Lo[i]
			}
			if o.Hi[i] < c.Hi[i] {
				c.Hi[i] = o.Hi[i]
			}
			if c.Lo[i] >= c.Hi[i] {
				return nil
			}
			continue
		}
		switch {
		case o.Cats[i] == nil:
			// keep c's constraint
		case c.Cats[i] == nil:
			c.Cats[i] = append([]bool(nil), o.Cats[i]...)
		default:
			any := false
			for v := range c.Cats[i] {
				c.Cats[i][v] = c.Cats[i][v] && o.Cats[i][v]
				any = any || c.Cats[i][v]
			}
			if !any {
				return nil
			}
		}
		if c.Cats[i] != nil && !anyAllowed(c.Cats[i]) {
			return nil
		}
	}
	return c
}

// Overlaps reports whether the intersection of two boxes over the same
// schema is non-empty — Intersect(o) != nil, decided without building the
// intersection.
func (b *Box) Overlaps(o *Box) bool {
	if b.schema != o.schema && !b.schema.Equal(o.schema) {
		panic("region: intersecting boxes over different schemas")
	}
	for i := range b.schema.Attrs {
		if b.schema.Attrs[i].Kind == dataset.Numeric {
			lo, hi := b.Lo[i], b.Hi[i]
			if o.Lo[i] > lo {
				lo = o.Lo[i]
			}
			if o.Hi[i] < hi {
				hi = o.Hi[i]
			}
			if lo >= hi {
				return false
			}
			continue
		}
		bc, oc := b.Cats[i], o.Cats[i]
		switch {
		case oc == nil:
			if bc != nil && !anyAllowed(bc) {
				return false
			}
		case bc == nil:
			if !anyAllowed(oc) {
				return false
			}
		default:
			both := false
			for v := range bc {
				if bc[v] && oc[v] {
					both = true
					break
				}
			}
			if !both {
				return false
			}
		}
	}
	return true
}

func anyAllowed(cs []bool) bool {
	for _, ok := range cs {
		if ok {
			return true
		}
	}
	return false
}

// Empty reports whether the box provably contains no point of the attribute
// space (an empty numeric interval or an empty categorical value set).
func (b *Box) Empty() bool {
	for i := range b.schema.Attrs {
		if b.schema.Attrs[i].Kind == dataset.Numeric {
			if b.Lo[i] >= b.Hi[i] {
				return true
			}
			continue
		}
		if b.Cats[i] != nil && !anyAllowed(b.Cats[i]) {
			return true
		}
	}
	return false
}

// Equal reports whether two boxes describe the same region syntactically.
func (b *Box) Equal(o *Box) bool {
	if !b.schema.Equal(o.schema) {
		return false
	}
	for i := range b.schema.Attrs {
		if b.schema.Attrs[i].Kind == dataset.Numeric {
			if b.Lo[i] != o.Lo[i] || b.Hi[i] != o.Hi[i] {
				return false
			}
			continue
		}
		bc, oc := b.Cats[i], o.Cats[i]
		if (bc == nil) != (oc == nil) {
			// nil means "all allowed": compare against an all-true set.
			n := b.schema.Attrs[i].Cardinality()
			full := func(cs []bool) bool {
				if len(cs) != n {
					return false
				}
				for _, ok := range cs {
					if !ok {
						return false
					}
				}
				return true
			}
			if bc == nil && !full(oc) {
				return false
			}
			if oc == nil && !full(bc) {
				return false
			}
			continue
		}
		for v := range bc {
			if bc[v] != oc[v] {
				return false
			}
		}
	}
	return true
}

// String renders the box as a conjunction of constraints, omitting
// unconstrained attributes.
func (b *Box) String() string {
	var parts []string
	for i := range b.schema.Attrs {
		a := &b.schema.Attrs[i]
		if a.Kind == dataset.Numeric {
			lo, hi := b.Lo[i], b.Hi[i]
			switch {
			case math.IsInf(lo, -1) && math.IsInf(hi, 1):
				// unconstrained
			case math.IsInf(lo, -1):
				parts = append(parts, fmt.Sprintf("%s <= %g", a.Name, hi))
			case math.IsInf(hi, 1):
				parts = append(parts, fmt.Sprintf("%s > %g", a.Name, lo))
			default:
				parts = append(parts, fmt.Sprintf("%g < %s <= %g", lo, a.Name, hi))
			}
			continue
		}
		if cs := b.Cats[i]; cs != nil {
			var vals []string
			for v, ok := range cs {
				if ok {
					vals = append(vals, a.Values[v])
				}
			}
			if len(vals) < len(a.Values) {
				sort.Strings(vals)
				parts = append(parts, fmt.Sprintf("%s in {%s}", a.Name, strings.Join(vals, ",")))
			}
		}
	}
	if len(parts) == 0 {
		return "true"
	}
	return strings.Join(parts, " AND ")
}
