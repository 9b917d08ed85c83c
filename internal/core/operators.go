package core

import (
	"sort"

	"focus/internal/apriori"
	"focus/internal/dataset"
	"focus/internal/region"
	"focus/internal/txn"
)

// This file implements the structural and rank operators of Section 5, used
// to declaratively specify interesting regions and order them by the
// interestingness of their change.

// StructuralUnion is the ⊔ operator for box region sets: the GCR of the two
// sets, i.e. every geometrically non-empty pairwise intersection of a region
// from each set (the overlay; for two partitions this is exactly the GCR of
// Definition 4.2).
func StructuralUnion(p1, p2 []*region.Box) []*region.Box {
	var out []*region.Box
	for _, a := range p1 {
		for _, b := range p2 {
			if c := a.Intersect(b); c != nil {
				out = append(out, c)
			}
		}
	}
	return out
}

// StructuralIntersection is the ⊓ operator: the regions that are members of
// both sets (standard set intersection, compared syntactically).
func StructuralIntersection(p1, p2 []*region.Box) []*region.Box {
	var out []*region.Box
	for _, a := range p1 {
		for _, b := range p2 {
			if a.Equal(b) {
				out = append(out, a)
				break
			}
		}
	}
	return out
}

// StructuralDifference is the − operator: (p1 ⊔ p2) − (p1 ⊓ p2).
func StructuralDifference(p1, p2 []*region.Box) []*region.Box {
	union := StructuralUnion(p1, p2)
	inter := StructuralIntersection(p1, p2)
	var out []*region.Box
	for _, u := range union {
		shared := false
		for _, v := range inter {
			if u.Equal(v) {
				shared = true
				break
			}
		}
		if !shared {
			out = append(out, u)
		}
	}
	return out
}

// FilterRegions keeps the regions whose intersection with the predicate
// region p is non-empty, intersected with p — the "Predicate" operator of
// Section 5 applied to a region set.
func FilterRegions(regions []*region.Box, p *region.Box) []*region.Box {
	var out []*region.Box
	for _, r := range regions {
		if c := r.Intersect(p); c != nil {
			out = append(out, c)
		}
	}
	return out
}

// RankedRegion is one output row of the Rank operator: a region and the
// deviation of the two datasets with respect to it.
type RankedRegion struct {
	Box       *region.Box
	Deviation float64
}

// Rank is the rank operator for box regions: it orders the given regions by
// decreasing deviation between d1 and d2 w.r.t. each region (computed with
// the difference function f; the aggregate is trivial for a single region).
// Ties preserve the input order (stable sort). Each region's two
// measurements shard the tuples across the process default's workers with
// an exact integer merge, while f — which callers may have made stateful —
// is applied serially in region order, so the ranking is identical for
// every worker count.
func Rank(regions []*region.Box, d1, d2 *dataset.Dataset, f DiffFunc) []RankedRegion {
	out := make([]RankedRegion, len(regions))
	n1, n2 := float64(d1.Len()), float64(d2.Len())
	for i, b := range regions {
		a1 := float64(d1.CountP(b.Contains, 0))
		a2 := float64(d2.CountP(b.Contains, 0))
		out[i] = RankedRegion{Box: b, Deviation: f(a1, a2, n1, n2)}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Deviation > out[j].Deviation })
	return out
}

// Top is the top-n selection operator over ranked regions.
func Top(ranked []RankedRegion, n int) []RankedRegion {
	if n > len(ranked) {
		n = len(ranked)
	}
	return ranked[:n]
}

// Bottom is the bottom-n selection operator over ranked regions.
func Bottom(ranked []RankedRegion, n int) []RankedRegion {
	if n > len(ranked) {
		n = len(ranked)
	}
	return ranked[len(ranked)-n:]
}

// ItemsetUnion is the ⊔ operator for lits structural components: the GCR is
// the set union (Section 2.2).
func ItemsetUnion(p1, p2 []apriori.Itemset) []apriori.Itemset {
	seen := make(map[string]bool, len(p1)+len(p2))
	var out []apriori.Itemset
	for _, src := range [2][]apriori.Itemset{p1, p2} {
		for _, s := range src {
			if k := s.Key(); !seen[k] {
				seen[k] = true
				out = append(out, s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// ItemsetIntersection is the ⊓ operator for lits structural components.
func ItemsetIntersection(p1, p2 []apriori.Itemset) []apriori.Itemset {
	in1 := make(map[string]bool, len(p1))
	for _, s := range p1 {
		in1[s.Key()] = true
	}
	var out []apriori.Itemset
	for _, s := range p2 {
		if in1[s.Key()] {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// ItemsetDifference is the − operator: (p1 ⊔ p2) − (p1 ⊓ p2), i.e. the
// symmetric difference of the two collections.
func ItemsetDifference(p1, p2 []apriori.Itemset) []apriori.Itemset {
	union := ItemsetUnion(p1, p2)
	inter := ItemsetIntersection(p1, p2)
	shared := make(map[string]bool, len(inter))
	for _, s := range inter {
		shared[s.Key()] = true
	}
	var out []apriori.Itemset
	for _, s := range union {
		if !shared[s.Key()] {
			out = append(out, s)
		}
	}
	return out
}

// FilterItemsets keeps the itemsets for which keep returns true — the
// Predicate operator in the frequent-itemset domain (e.g. "itemsets within
// the shoe department": P(I1) in the paper's Section 5.1 example).
func FilterItemsets(sets []apriori.Itemset, keep func(apriori.Itemset) bool) []apriori.Itemset {
	var out []apriori.Itemset
	for _, s := range sets {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// WithinItems returns an itemset predicate admitting only itemsets drawn
// entirely from the given item family (a "department" in the paper's retail
// example).
func WithinItems(family []txn.Item) func(apriori.Itemset) bool {
	in := make(map[txn.Item]bool, len(family))
	for _, it := range family {
		in[it] = true
	}
	return func(s apriori.Itemset) bool {
		for _, it := range s {
			if !in[it] {
				return false
			}
		}
		return true
	}
}

// RankedItemset is one output row of the itemset rank operator.
type RankedItemset struct {
	Itemset   apriori.Itemset
	Deviation float64
	// Sup1 and Sup2 are the itemset's supports in the two datasets.
	Sup1, Sup2 float64
}

// RankItemsets orders itemsets by decreasing deviation between d1 and d2
// w.r.t. each itemset's region, counting all supports in one scan per
// dataset. The two scans shard transactions across the process default's
// workers with a deterministic shard-order merge, so the ranking is
// identical for every worker count.
func RankItemsets(sets []apriori.Itemset, d1, d2 *txn.Dataset, f DiffFunc) []RankedItemset {
	c1 := apriori.CountItemsetsP(d1, sets, 0)
	c2 := apriori.CountItemsetsP(d2, sets, 0)
	n1, n2 := float64(d1.Len()), float64(d2.Len())
	out := make([]RankedItemset, len(sets))
	for i, s := range sets {
		a1, a2 := float64(c1[i]), float64(c2[i])
		out[i] = RankedItemset{
			Itemset:   s,
			Deviation: f(a1, a2, n1, n2),
			Sup1:      sel(a1, n1),
			Sup2:      sel(a2, n2),
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Deviation > out[j].Deviation })
	return out
}

// TopItemsets is the top-n selection operator over ranked itemsets.
func TopItemsets(ranked []RankedItemset, n int) []RankedItemset {
	if n > len(ranked) {
		n = len(ranked)
	}
	return ranked[:n]
}
