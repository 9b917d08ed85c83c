package dtree

import (
	"cmp"
	"slices"

	"focus/internal/dataset"
)

// This file holds the SLIQ/SPRINT-style presorted attribute lists the fast
// engine sweeps (Mehta, Agrawal & Rissanen, EDBT 1996; Shafer, Agrawal &
// Mehta, VLDB 1996): each numeric attribute is put in value order ONCE at
// the root into a per-attribute list of row ids, and on every split the
// lists are stable-partitioned in node order — a stable scan preserves
// sortedness, so the per-node numeric split search becomes a single linear
// sweep with no re-sorting anywhere below the root.
//
// The root lists come from dense value ranks (Ranks): a stable counting
// sort of the rows by rank is exactly the (value, row id) order. Ranking is
// the only comparison sort, so a dataset ranked once serves every sample
// drawn from it — the bootstrap grows each replicate's trees from its
// pool's ranks without sorting again.

// Ranks holds the dense value ranks of a dataset's numeric non-class
// attributes: rows with equal values (including -0 and +0) share a rank,
// and a smaller value has a smaller rank. Ranks are immutable once built
// and safe for concurrent use.
type Ranks struct {
	schema *dataset.Schema
	// rank maps each ranked attribute to its per-row ranks; nil for
	// categorical and class attributes.
	rank [][]int32
	// distinct holds each ranked attribute's number of distinct values.
	distinct []int
}

// NewRanks ranks every numeric non-class attribute of d, one attribute per
// parallel worker. It rejects NaN values, which have no place in the order.
func NewRanks(d *dataset.Dataset, parallelism int) (*Ranks, error) {
	if err := checkFinite(d); err != nil {
		return nil, err
	}
	return rankAttrs(d, parallelism), nil
}

// rankAttrs is NewRanks on a dataset already checked to be NaN-free.
func rankAttrs(d *dataset.Dataset, parallelism int) *Ranks {
	r := &Ranks{
		schema:   d.Schema,
		rank:     make([][]int32, len(d.Schema.Attrs)),
		distinct: make([]int, len(d.Schema.Attrs)),
	}
	type valueRow struct {
		v   float64
		row int32
	}
	forEachAttr(numericAttrs(d.Schema), parallelism, func(a int) {
		byValue := make([]valueRow, d.Len())
		for i, t := range d.Tuples {
			byValue[i] = valueRow{t[a], int32(i)}
		}
		slices.SortFunc(byValue, func(x, y valueRow) int { return cmp.Compare(x.v, y.v) })
		rank := make([]int32, len(byValue))
		k := int32(-1)
		for i, e := range byValue {
			if i == 0 || e.v != byValue[i-1].v {
				k++
			}
			rank[e.row] = k
		}
		r.rank[a] = rank
		r.distinct[a] = int(k + 1)
	})
	return r
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

// sortedRows orders the positions 0..len(rows)-1 of a sample whose row i
// is the ranked dataset's row rows[i] by the attribute's rank, ties in
// position order. The stable counting sort makes that exactly the sample's
// (value, row id) order.
func (r *Ranks) sortedRows(a int, rows []int32) []int32 {
	rank := r.rank[a]
	next := make([]int32, r.distinct[a]+1)
	for _, p := range rows {
		next[rank[p]+1]++
	}
	for v := 1; v < len(next); v++ {
		next[v] += next[v-1]
	}
	list := make([]int32, len(rows))
	for i, p := range rows {
		k := rank[p]
		list[next[k]] = int32(i)
		next[k]++
	}
	return list
}

// attrLists is the node-ordered row storage of the fast engine. Every
// slice is segmented by node: a node owns the half-open range [lo, hi) of
// rows and of every attribute list, its left child [lo, lo+nl) and its
// right child [lo+nl, hi).
type attrLists struct {
	// rows holds the node-ordered row ids (root: 0..n-1). Class counts and
	// categorical AVC-sets are computed from it.
	rows []int32
	// lists maps each numeric attribute to its row ids sorted ascending by
	// value (ties by row id); nil for categorical attributes and in
	// histogram mode, which needs no per-node sorted order.
	lists [][]int32
	// side marks, per row id, the side of the split being realized (true =
	// left). It is scratch state of partition, indexed by row id so every
	// list partition of one split shares one marking pass.
	side []bool
	// scratch is the stable-partition buffer, len n.
	scratch []int32
}

// newAttrLists builds the root lists of an n-row sample whose row i is the
// ranked dataset's row rows[i]. Every attribute r ranks gets a sorted list,
// built on parallel workers (each attribute's list is written by exactly
// one worker); a nil r — the histogram engine — gets none.
func newAttrLists(n int, r *Ranks, rows []int32, parallelism int) *attrLists {
	al := &attrLists{
		rows:    make([]int32, n),
		side:    make([]bool, n),
		scratch: make([]int32, n),
	}
	for i := range al.rows {
		al.rows[i] = int32(i)
	}
	if r != nil {
		al.lists = make([][]int32, len(r.rank))
		forEachAttr(numericAttrs(r.schema), parallelism, func(a int) {
			al.lists[a] = r.sortedRows(a, rows)
		})
	}
	return al
}

// stablePartition reorders seg so the rows marked left in side come first
// (nl of them), both halves preserving their relative order — which is what
// keeps sorted attribute lists sorted within each child segment.
func stablePartition(seg []int32, side []bool, scratch []int32, nl int) {
	l, r := 0, nl
	for _, id := range seg {
		if side[id] {
			scratch[l] = id
			l++
		} else {
			scratch[r] = id
			r++
		}
	}
	copy(seg, scratch[:len(seg)])
}
