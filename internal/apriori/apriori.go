// Package apriori implements the Apriori frequent-itemset mining algorithm
// of Agrawal & Srikant (VLDB 1994), which the paper uses to compute
// lits-models (Section 6.1.1). Beyond mining, it supports counting the
// supports of an arbitrary fixed collection of itemsets in a single dataset
// scan — the operation FOCUS needs to extend a model to the greatest common
// refinement of two lits-models (Section 4.1).
package apriori

import (
	"encoding/binary"
	"fmt"
	"sort"

	"focus/internal/parallel"
	"focus/internal/txn"
)

// Itemset is a sorted, duplicate-free set of items.
type Itemset []txn.Item

// Key returns a byte-exact map key for the itemset.
func (s Itemset) Key() string {
	b := make([]byte, 4*len(s))
	for i, it := range s {
		binary.BigEndian.PutUint32(b[4*i:], uint32(it))
	}
	return string(b)
}

// Clone returns a copy of the itemset.
func (s Itemset) Clone() Itemset {
	c := make(Itemset, len(s))
	copy(c, s)
	return c
}

// Equal reports whether two itemsets hold the same items.
func (s Itemset) Equal(o Itemset) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Less orders itemsets lexicographically (shorter prefixes first).
func (s Itemset) Less(o Itemset) bool {
	n := len(s)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if s[i] != o[i] {
			return s[i] < o[i]
		}
	}
	return len(s) < len(o)
}

// String renders the itemset like "{3 17 42}".
func (s Itemset) String() string {
	out := "{"
	for i, it := range s {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprint(it)
	}
	return out + "}"
}

// NewItemset normalizes items into an Itemset (sorted, unique).
func NewItemset(items ...txn.Item) Itemset {
	s := append(Itemset(nil), items...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:0]
	for i, x := range s {
		if i == 0 || x != s[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// FrequentSet is the raw material of a lits-model: the frequent itemsets of
// a dataset at a minimum support level, with their supports.
type FrequentSet struct {
	// MinSupport is the mining threshold (a fraction of |D|).
	MinSupport float64
	// N is |D|, the number of transactions the supports are relative to.
	N int
	// Itemsets holds the frequent itemsets in lexicographic order.
	Itemsets []Itemset
	// Counts holds the absolute support count of each itemset.
	Counts []int

	index map[string]int
}

// Len returns the number of frequent itemsets.
func (f *FrequentSet) Len() int { return len(f.Itemsets) }

// Support returns the support (selectivity) of the i-th itemset.
func (f *FrequentSet) Support(i int) float64 {
	if f.N == 0 {
		return 0
	}
	return float64(f.Counts[i]) / float64(f.N)
}

// Lookup returns the index of itemset s, or -1 when s is not frequent.
func (f *FrequentSet) Lookup(s Itemset) int {
	if f.index == nil {
		f.buildIndex()
	}
	if i, ok := f.index[s.Key()]; ok {
		return i
	}
	return -1
}

func (f *FrequentSet) buildIndex() {
	f.index = make(map[string]int, len(f.Itemsets))
	for i, s := range f.Itemsets {
		f.index[s.Key()] = i
	}
}

func (f *FrequentSet) sortLex() {
	order := make([]int, len(f.Itemsets))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return f.Itemsets[order[a]].Less(f.Itemsets[order[b]]) })
	its := make([]Itemset, len(order))
	cnt := make([]int, len(order))
	for i, j := range order {
		its[i] = f.Itemsets[j]
		cnt[i] = f.Counts[j]
	}
	f.Itemsets, f.Counts = its, cnt
	f.index = nil
}

// horizontalItemCounts is the raw pass-1 scan — per-item occurrence counts
// by walking the transactions — shared by the trie-side Engine and the
// vertical-index build (which cannot route through the memoized index it
// is itself constructing). Per-shard integer vectors merge in shard order,
// so the counts are identical for every worker count.
func horizontalItemCounts(d *txn.Dataset, parallelism int) []int {
	itemCounts := make([]int, d.NumItems)
	if parallel.Workers(parallelism) == 1 {
		for _, t := range d.Txns {
			for _, it := range t {
				itemCounts[it]++
			}
		}
		return itemCounts
	}
	parallel.MapReduce(len(d.Txns), parallelism,
		func() []int { return make([]int, d.NumItems) },
		func(acc []int, c parallel.Chunk) {
			for _, t := range d.Txns[c.Lo:c.Hi] {
				for _, it := range t {
					acc[it]++
				}
			}
		},
		func(acc []int) {
			for i, v := range acc {
				itemCounts[i] += v
			}
		})
	return itemCounts
}

// MineP runs Apriori over d at the given minimum support (fraction in
// (0,1]) and returns all frequent itemsets with their counts. Parallelism
// 0 is the process default and 1 the exact serial path: the per-pass
// support counting — the dense item counters of pass 1 and the candidate
// counting of every later pass — and the vertical miner's subtree walk
// both shard across workers with shard-order merges, so the mined
// frequent sets are bit-identical to the serial miner for every worker
// count.
func MineP(d *txn.Dataset, minSupport float64, parallelism int) (*FrequentSet, error) {
	return NewEngine(d, parallelism, CounterDefault).Mine(minSupport)
}

// MineWith is MineP with the backend-forcing seam, which selects the
// mining strategy along with the counting backend (trie → levelwise
// Apriori, bitmap → vertical Eclat, auto → useVertical); the mined
// frequent sets are bit-identical for every Counter.
func MineWith(d *txn.Dataset, minSupport float64, parallelism int, counter Counter) (*FrequentSet, error) {
	return NewEngine(d, parallelism, counter).Mine(minSupport)
}

// minSupportError is the shared out-of-range error of every miner entry.
func minSupportError(minSupport float64) error {
	return fmt.Errorf("apriori: minimum support %v outside (0,1]", minSupport)
}

// mineLevelwise runs levelwise Apriori over the engine's dataset, pass 1
// from ItemCounts and every later pass through Count: the engine's
// trie-side miner. The caller has checked minSupport and that the dataset
// holds transactions.
func (e *Engine) mineLevelwise(minSupport float64) *FrequentSet {
	out := &FrequentSet{MinSupport: minSupport, N: e.d.Len()}
	minCount := minCountFor(minSupport, e.d.Len())

	// Pass 1: frequent items.
	itemCounts := e.ItemCounts()
	var level []Itemset
	var levelCounts []int
	for it, c := range itemCounts {
		if c >= minCount {
			level = append(level, Itemset{txn.Item(it)})
			levelCounts = append(levelCounts, c)
		}
	}
	out.Itemsets = append(out.Itemsets, level...)
	out.Counts = append(out.Counts, levelCounts...)

	// Passes k >= 2: generate candidates from L(k-1), count with a trie.
	for len(level) >= 2 {
		candidates := generateCandidates(level)
		if len(candidates) == 0 {
			break
		}
		counts := e.Count(candidates)
		var next []Itemset
		var nextCounts []int
		for i, c := range counts {
			if c >= minCount {
				next = append(next, candidates[i])
				nextCounts = append(nextCounts, c)
			}
		}
		out.Itemsets = append(out.Itemsets, next...)
		out.Counts = append(out.Counts, nextCounts...)
		level = next
	}
	out.sortLex()
	return out
}

// generateCandidates implements the Apriori candidate-generation step: join
// (k-1)-itemsets sharing their first k-2 items, then prune candidates with
// an infrequent (k-1)-subset (downward closure). Membership checks binary-
// search the sorted level instead of keying a map, and the surviving
// candidates slice one shared arena, so a generation pass allocates O(1)
// slices instead of O(candidates) map keys.
func generateCandidates(level []Itemset) []Itemset {
	if !sortedLex(level) {
		sort.Slice(level, func(i, j int) bool { return level[i].Less(level[j]) })
	}
	k := len(level[0]) + 1
	// Count the join pairs first so one arena holds every candidate's items
	// without reallocating (which would invalidate earlier candidates).
	pairs := 0
	for i := 0; i < len(level); i++ {
		for j := i + 1; j < len(level) && samePrefix(level[i], level[j], k-2); j++ {
			pairs++
		}
	}
	if pairs == 0 {
		return nil
	}
	arena := make([]txn.Item, 0, pairs*k)
	out := make([]Itemset, 0, pairs)
	sub := make(Itemset, 0, k-1)
	for i := 0; i < len(level); i++ {
		for j := i + 1; j < len(level); j++ {
			a, b := level[i], level[j]
			if !samePrefix(a, b, k-2) {
				break // level is sorted; no later j shares the prefix
			}
			start := len(arena)
			arena = append(arena, a...)
			arena = append(arena, b[k-2])
			cand := Itemset(arena[start:len(arena):len(arena)])
			if !pruneOK(cand, level, sub) {
				arena = arena[:start]
				continue
			}
			out = append(out, cand)
		}
	}
	return out
}

// sortedLex reports whether the itemsets are already in lexicographic
// order (levelwise passes always hand them over sorted).
func sortedLex(level []Itemset) bool {
	for i := 1; i < len(level); i++ {
		if level[i].Less(level[i-1]) {
			return false
		}
	}
	return true
}

func samePrefix(a, b Itemset, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// levelContains reports whether the sorted level holds s, by binary search.
func levelContains(level []Itemset, s Itemset) bool {
	lo := sort.Search(len(level), func(i int) bool { return !level[i].Less(s) })
	return lo < len(level) && level[lo].Equal(s)
}

// pruneOK checks the downward-closure condition: every (k-1)-subset of cand
// must be frequent. The subsets dropping cand's last two positions are the
// join parents — present by construction — so only the earlier drops are
// searched. sub is scratch space of capacity k-1.
func pruneOK(cand Itemset, level []Itemset, sub Itemset) bool {
	for drop := 0; drop < len(cand)-2; drop++ {
		sub = sub[:0]
		for i, it := range cand {
			if i != drop {
				sub = append(sub, it)
			}
		}
		if !levelContains(level, sub) {
			return false
		}
	}
	return true
}
