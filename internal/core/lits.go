package core

import (
	"sort"

	"focus/internal/apriori"
	"focus/internal/txn"
)

// LitsModel is a lits-model (Section 2.2): the structural component is the
// set of frequent itemsets (each identifying the region of transactions
// containing it), and the measure component is their supports. The
// refinement relation is the superset relation on itemset collections
// (Section 4.1), under which structural components form a meet-semilattice
// whose greatest lower bound is the set union.
type LitsModel struct {
	// FS holds the frequent itemsets with their absolute support counts.
	FS *apriori.FrequentSet
}

// MineLits induces the lits-model of d at the given minimum support.
func MineLits(d *txn.Dataset, minSupport float64) (*LitsModel, error) {
	return MineLitsP(d, minSupport, 1)
}

// MineLitsP is MineLits with a parallelism knob (0 = the process default,
// 1 = the exact serial path): Apriori's per-pass support counting is
// sharded across workers with a deterministic shard-order merge, so the
// model is bit-identical to the serial miner for every worker count.
func MineLitsP(d *txn.Dataset, minSupport float64, parallelism int) (*LitsModel, error) {
	fs, err := apriori.MineP(d, minSupport, parallelism)
	if err != nil {
		return nil, err
	}
	return &LitsModel{FS: fs}, nil
}

// MinSupport returns the model's mining threshold.
func (m *LitsModel) MinSupport() float64 { return m.FS.MinSupport }

// N returns the size of the inducing dataset.
func (m *LitsModel) N() int { return m.FS.N }

// Len returns the number of regions (frequent itemsets) in the structural
// component.
func (m *LitsModel) Len() int { return m.FS.Len() }

// GCRItemsets returns the structural component of the greatest common
// refinement of two lits-models: the union of their frequent itemsets
// (Section 2.2), in lexicographic order.
func GCRItemsets(m1, m2 *LitsModel) []apriori.Itemset {
	return newLitsGCR(m1.FS, m2.FS).sets
}

// litsGCR is the GCR of two frequent sets built by one linear merge: the
// union of their itemsets in lexicographic order, with each itemset's
// index in the first (at1) and second (at2) set, -1 where it is not
// frequent. The indices let a caller that mined both sets from the data it
// measures read those supports instead of counting them again.
type litsGCR struct {
	sets     []apriori.Itemset
	at1, at2 []int
}

// newLitsGCR merges fs1 and fs2. Every miner emits its itemsets in strictly
// increasing lexicographic order, which the merge walks directly; a set in
// any other order (a hand-built FrequentSet) is walked through a sorted,
// de-duplicated permutation instead.
func newLitsGCR(fs1, fs2 *apriori.FrequentSet) litsGCR {
	s1, s2 := fs1.Itemsets, fs2.Itemsets
	o1, o2 := lexOrder(s1), lexOrder(s2)
	g := litsGCR{
		sets: make([]apriori.Itemset, 0, len(o1)+len(o2)),
		at1:  make([]int, 0, len(o1)+len(o2)),
		at2:  make([]int, 0, len(o1)+len(o2)),
	}
	for i, j := 0, 0; i < len(o1) || j < len(o2); {
		switch {
		case j == len(o2) || (i < len(o1) && s1[o1[i]].Less(s2[o2[j]])):
			g.add(s1[o1[i]], o1[i], -1)
			i++
		case i == len(o1) || s2[o2[j]].Less(s1[o1[i]]):
			g.add(s2[o2[j]], -1, o2[j])
			j++
		default:
			g.add(s1[o1[i]], o1[i], o2[j])
			i++
			j++
		}
	}
	return g
}

func (g *litsGCR) add(s apriori.Itemset, i1, i2 int) {
	g.sets = append(g.sets, s)
	g.at1 = append(g.at1, i1)
	g.at2 = append(g.at2, i2)
}

// focus keeps the itemsets keep admits (all of them when keep is nil).
func (g *litsGCR) focus(keep func(apriori.Itemset) bool) {
	if keep == nil {
		return
	}
	n := 0
	for i, s := range g.sets {
		if keep(s) {
			g.sets[n], g.at1[n], g.at2[n] = s, g.at1[i], g.at2[i]
			n++
		}
	}
	g.sets, g.at1, g.at2 = g.sets[:n], g.at1[:n], g.at2[:n]
}

// lexOrder returns the indices of sets in lexicographic order, without
// duplicates: the identity when sets is strictly increasing (one O(n)
// check), else a sorted permutation keeping the last occurrence of each
// itemset, as FrequentSet.Lookup does.
func lexOrder(sets []apriori.Itemset) []int {
	order := make([]int, len(sets))
	sorted := true
	for i := range order {
		order[i] = i
		sorted = sorted && (i == 0 || sets[i-1].Less(sets[i]))
	}
	if sorted {
		return order
	}
	sort.SliceStable(order, func(a, b int) bool { return sets[order[a]].Less(sets[order[b]]) })
	out := order[:0]
	for _, i := range order {
		if n := len(out); n > 0 && sets[out[n-1]].Equal(sets[i]) {
			out[n-1] = i
			continue
		}
		out = append(out, i)
	}
	return out
}

// LitsDeviationOverRefinement computes delta_1(f,g) over an arbitrary common
// refinement given as an explicit itemset collection, used to verify
// Theorem 4.1 (the GCR yields the least deviation over all common
// refinements).
func LitsDeviationOverRefinement(refinement []apriori.Itemset, d1, d2 *txn.Dataset, f DiffFunc, g AggFunc) float64 {
	c1 := apriori.CountItemsets(d1, refinement)
	c2 := apriori.CountItemsets(d2, refinement)
	regions := make([]MeasuredRegion, len(refinement))
	for i := range refinement {
		regions[i] = MeasuredRegion{Alpha1: float64(c1[i]), Alpha2: float64(c2[i])}
	}
	return Deviation1(regions, float64(d1.Len()), float64(d2.Len()), f, g)
}

// LitsUpperBound computes delta*(g) of Definition 4.1 / Theorem 4.2: an
// upper bound on delta(f_a, g) obtained from the two models alone, without
// scanning either dataset. An itemset frequent in only one model has its
// unknown support in the other dataset (known to be below the minimum
// support) replaced by zero, which can only increase the absolute
// difference. delta* satisfies the triangle inequality, making it usable as
// a metric for embedding dataset collections (Section 4.1.1).
func LitsUpperBound(m1, m2 *LitsModel, g AggFunc) float64 {
	gcr := newLitsGCR(m1.FS, m2.FS)
	n1, n2 := float64(m1.N()), float64(m2.N())
	diffs := make([]float64, len(gcr.sets))
	for i := range gcr.sets {
		var a1, a2 float64
		if j := gcr.at1[i]; j >= 0 {
			a1 = float64(m1.FS.Counts[j])
		}
		if j := gcr.at2[i]; j >= 0 {
			a2 = float64(m2.FS.Counts[j])
		}
		diffs[i] = AbsoluteDiff(a1, a2, n1, n2)
	}
	return g(diffs)
}
