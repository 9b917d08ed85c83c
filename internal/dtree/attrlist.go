package dtree

import (
	"errors"
	"math"
	"slices"

	"focus/internal/dataset"
)

// This file holds the SLIQ/SPRINT-style presorted attribute lists the
// engine sweeps (Mehta, Agrawal & Rissanen, EDBT 1996; Shafer, Agrawal &
// Mehta, VLDB 1996) and the Builder that owns them.
//
// A build grows a tree over units: the distinct rows of a ranked dataset
// that a sample drew, each weighted by its draw count. BuildP is the build
// whose every row is drawn once; a bootstrap replicate draws with
// replacement, so about 63% of its draws are distinct and the rest only
// raise weights. Class counts, AVC-sets, sweep prefixes and MinLeaf checks
// all sum integer weights, so every float operation sees the operands the
// expanded sample would give it, and the tree is the one BuildP grows on
// the gathered sample, bit for bit.
//
// Ranks sorts each numeric attribute once. The root list of an attribute
// keeps its order, filtered to the drawn rows, as packed entries
// rank<<32 | unit: the sweep tests "distinct from next" on ranks, equal
// rank meaning equal value (-0 and +0 share one), and reads the two float
// values only at the winning cut. Per unit the engine keeps compact
// class, weight and categorical-code columns, so a sweep step is one list
// read and two loads from arrays of the sample's distinct size.
//
// On every split the lists are stable-partitioned in node order, which
// keeps them sorted within each child segment. A numeric split's left side
// is the first entries of the winning list — the cut the sweep counted —
// so that list is already partitioned and is skipped.

// Ranks is a dataset prepared for tree builds over samples drawn from it:
// the presorted order of each numeric non-class attribute and compact
// class and categorical-code columns. Ranks are immutable once built and
// safe for concurrent use.
type Ranks struct {
	data *dataset.Dataset
	// order maps each numeric non-class attribute to its rows as packed
	// entries rank<<32 | row, ascending; nil for the other attributes.
	// Rows with equal values (including -0 and +0) share a dense rank, and
	// a smaller value has a smaller rank.
	order [][]uint64
	// class holds each row's class index.
	class []int32
	// codes maps each categorical non-class attribute to its per-row value
	// codes; nil for the other attributes.
	codes [][]int32
}

// NewRanks ranks every numeric non-class attribute of d, one attribute per
// parallel worker. It rejects a schema without a class attribute and NaN
// values, which have no place in the order.
func NewRanks(d *dataset.Dataset, parallelism int) (*Ranks, error) {
	if d.Schema.Class < 0 {
		return nil, errors.New("dtree: schema has no class attribute")
	}
	if err := checkFinite(d); err != nil {
		return nil, err
	}
	return rankAttrs(d, parallelism), nil
}

// rankAttrs is NewRanks on a classification dataset already checked to be
// NaN-free.
func rankAttrs(d *dataset.Dataset, parallelism int) *Ranks {
	s := d.Schema
	r := &Ranks{
		data:  d,
		order: make([][]uint64, len(s.Attrs)),
		class: make([]int32, d.Len()),
		codes: make([][]int32, len(s.Attrs)),
	}
	for i, t := range d.Tuples {
		r.class[i] = int32(t[s.Class])
	}
	for a := range s.Attrs {
		if a != s.Class && s.Attrs[a].Kind == dataset.Categorical {
			codes := make([]int32, d.Len())
			for i, t := range d.Tuples {
				codes[i] = int32(t[a])
			}
			r.codes[a] = codes
		}
	}
	forEachAttr(numericAttrs(s), parallelism, func(a int) {
		byValue := make([]keyRow, d.Len())
		for i, t := range d.Tuples {
			byValue[i] = keyRow{orderKey(t[a]), int32(i)}
		}
		byValue = radixSort(byValue, make([]keyRow, len(byValue)))
		order := make([]uint64, len(byValue))
		var k uint64
		for i, e := range byValue {
			if i > 0 && e.key != byValue[i-1].key {
				k++
			}
			order[i] = k<<32 | uint64(e.row)
		}
		r.order[a] = order
	})
	return r
}

// keyRow is a row and the order key of one of its values.
type keyRow struct {
	key uint64
	row int32
}

// orderKey maps a finite value to a key whose unsigned order is the value
// order. -0 and +0 are one value and get one key.
func orderKey(v float64) uint64 {
	if v == 0 {
		v = 0 // +0
	}
	k := math.Float64bits(v)
	if k>>63 != 0 {
		return ^k
	}
	return k | 1<<63
}

// radixSort sorts s by key, ties keeping their order, with a byte-wise
// LSD radix sort through the equally long buffer tmp; it returns whichever
// of the two holds the result. Passes over a byte every key shares are
// skipped.
func radixSort(s, tmp []keyRow) []keyRow {
	for shift := 0; shift < 64 && len(s) > 0; shift += 8 {
		var next [256]int
		for _, e := range s {
			next[byte(e.key>>shift)]++
		}
		if next[byte(s[0].key>>shift)] == len(s) {
			continue
		}
		pos := 0
		for i, c := range next {
			next[i] = pos
			pos += c
		}
		for _, e := range s {
			b := byte(e.key >> shift)
			tmp[next[b]] = e
			next[b]++
		}
		s, tmp = tmp, s
	}
	return s
}

// numericAttrs returns the numeric non-class attributes of s, ascending.
func numericAttrs(s *dataset.Schema) []int {
	var out []int
	for a := range s.Attrs {
		if a != s.Class && s.Attrs[a].Kind == dataset.Numeric {
			out = append(out, a)
		}
	}
	return out
}

// Builder grows trees over samples drawn from a ranked dataset. It keeps
// its lists, columns and per-node scratch from build to build, so a warm
// builder allocates only the trees it returns. A Builder belongs to one
// goroutine.
type Builder struct {
	r          *Ranks
	k          int   // number of classes
	splitAttrs []int // every attribute except the class, ascending
	numeric    []int // the numeric ones among them

	// Per build.
	cfg Config
	par int // parallelism knob (0 = process default, 1 = serial)

	// slot counts each ranked row's draws while a build starts, then holds
	// its unit index + 1; it is all zero between builds.
	slot []int32
	// The unit columns, indexed by unit: units are the drawn rows in
	// ascending row order.
	row, weight, class []int32
	codes              [][]int32 // categorical attribute → per-unit codes

	// The node-ordered storage. Every slice is segmented by node: a node
	// owns the half-open range [lo, hi) of units and of every list, its
	// left child [lo, lo+ul) and its right child [lo+ul, hi).
	rows  []int32    // units; class counts and AVC-sets are summed from it
	lists [][]uint64 // numeric attribute → rank<<32 | unit
	// side marks, per unit, the side of the split being realized (true =
	// left), so every list partition of one split shares one marking pass.
	side      []bool
	scratch32 []int32
	scratch64 []uint64

	counts  []int         // the node's class counts
	results []split       // per split attribute, in splitAttrs order
	attr    []attrScratch // per attribute

	leaves  []*Node // leaves of the tree being grown, by leaf id
	leafEnd []int32 // end of each leaf's segment of rows
}

// attrScratch is one attribute's split-search scratch. Attributes are
// searched on parallel workers, so none of it is shared.
type attrScratch struct {
	left, right []int // class counts either side of a cut
	// Categorical: the weighted AVC-set indexed value*k+class, the value
	// totals, and the present values in sweep order.
	avc, totals, present []int
}

// newAttrScratch sizes the scratch of an attribute of the given
// cardinality (0 for numeric attributes) over k classes.
func newAttrScratch(card, k int) attrScratch {
	return attrScratch{
		left:    make([]int, k),
		right:   make([]int, k),
		avc:     make([]int, card*k),
		totals:  make([]int, card),
		present: make([]int, 0, card),
	}
}

// NewBuilder returns a builder of trees over samples drawn from r.
func NewBuilder(r *Ranks) *Builder {
	s := r.data.Schema
	b := &Builder{
		r:       r,
		k:       s.NumClasses(),
		numeric: numericAttrs(s),
		slot:    make([]int32, r.data.Len()),
		codes:   make([][]int32, len(s.Attrs)),
		lists:   make([][]uint64, len(s.Attrs)),
		counts:  make([]int, s.NumClasses()),
		attr:    make([]attrScratch, len(s.Attrs)),
	}
	for a, at := range s.Attrs {
		if a == s.Class {
			continue
		}
		b.splitAttrs = append(b.splitAttrs, a)
		card := 0
		if at.Kind == dataset.Categorical {
			card = at.Cardinality()
		}
		b.attr[a] = newAttrScratch(card, b.k)
	}
	b.results = make([]split, len(b.splitAttrs))
	return b
}

// Build grows, bit for bit, the tree BuildP(sample, cfg, 1) grows on the
// sample whose row i is the ranked dataset's row rows[i]. The sample is
// never gathered: the tree grows over the distinct drawn rows, each
// weighted by its draw count, and EachRow then reports where each of them
// ended.
func (b *Builder) Build(rows []int32, cfg Config) (*Tree, error) {
	return b.build(rows, cfg, 1)
}

// EachRow calls fn once per distinct row of the last build, in leaf
// order, with the row's draw count and the id of the leaf it ended in.
func (b *Builder) EachRow(fn func(row int32, weight, leaf int)) {
	lo := int32(0)
	for leaf, hi := range b.leafEnd {
		for _, u := range b.rows[lo:hi] {
			fn(b.row[u], int(b.weight[u]), leaf)
		}
		lo = hi
	}
}

// build validates the draw and the configuration and grows the tree.
func (b *Builder) build(rows []int32, cfg Config, parallelism int) (*Tree, error) {
	cfg, err := prepareShape(b.r.data.Schema, len(rows), cfg)
	if err != nil {
		return nil, err
	}
	for _, p := range rows {
		if p < 0 || int(p) >= len(b.slot) {
			return nil, errors.New("dtree: sample row outside the ranked dataset")
		}
	}
	b.cfg, b.par = cfg, parallelism
	b.setUnits(rows)
	b.rootAttrs()
	b.leafEnd = b.leafEnd[:0]
	t := &Tree{Schema: b.r.data.Schema}
	t.Root = b.grow(0, len(b.row), 0)
	t.leaves = slices.Clone(b.leaves)
	t.numLeaves = len(t.leaves)
	clear(b.leaves)
	b.leaves = b.leaves[:0]
	for _, p := range b.row {
		b.slot[p] = 0
	}
	return t, nil
}

// setUnits turns the draw into the unit columns and the root row list.
func (b *Builder) setUnits(rows []int32) {
	for _, p := range rows {
		b.slot[p]++
	}
	b.row = slices.Grow(b.row[:0], min(len(rows), len(b.slot)))
	b.weight = slices.Grow(b.weight[:0], cap(b.row))
	for p, c := range b.slot {
		if c > 0 {
			b.row = append(b.row, int32(p))
			b.weight = append(b.weight, c)
			b.slot[p] = int32(len(b.row))
		}
	}
	m := len(b.row)
	b.class = resize(b.class, m)
	for u, p := range b.row {
		b.class[u] = b.r.class[p]
	}
	for a, col := range b.r.codes {
		if col != nil {
			codes := resize(b.codes[a], m)
			for u, p := range b.row {
				codes[u] = col[p]
			}
			b.codes[a] = codes
		}
	}
	b.rows = resize(b.rows, m)
	for u := range b.rows {
		b.rows[u] = int32(u)
	}
	b.side = resize(b.side, m)
	b.scratch32 = resize(b.scratch32, m)
	b.scratch64 = resize(b.scratch64, m)
}

// listRoot builds attribute a's root list: the ranked order filtered to
// the drawn rows, each entry carrying its unit.
func (b *Builder) listRoot(a int) {
	list := resize(b.lists[a], len(b.row))
	i := 0
	for _, e := range b.r.order[a] {
		if s := b.slot[uint32(e)]; s > 0 {
			list[i] = e&^(1<<32-1) | uint64(s-1)
			i++
		}
	}
	b.lists[a] = list
}

// value returns attribute a's value for the unit of a list entry.
func (b *Builder) value(e uint64, a int) float64 {
	return b.r.data.Tuples[b.row[uint32(e)]][a]
}

// resize returns s with length n, reusing its storage when it is large
// enough.
func resize[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// stablePartition reorders seg so the units marked left in side come first
// (nl of them), both halves preserving their relative order — which is
// what keeps sorted attribute lists sorted within each child segment. An
// element's unit is its low 32 bits.
func stablePartition[E int32 | uint64](seg []E, side []bool, scratch []E, nl int) {
	l, r := 0, nl
	for _, e := range seg {
		if side[uint32(e)] {
			scratch[l] = e
			l++
		} else {
			scratch[r] = e
			r++
		}
	}
	copy(seg, scratch[:len(seg)])
}
