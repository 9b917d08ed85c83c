package apriori

import (
	"focus/internal/parallel"
	"focus/internal/txn"
)

// trieNode is one node of the itemset-counting prefix trie. Children are
// keyed by item; terminal holds the indexes of the registered itemsets that
// end at this node (several, if the caller registered duplicates).
type trieNode struct {
	children map[txn.Item]*trieNode
	terminal []int
}

func newTrieNode() *trieNode {
	return &trieNode{}
}

func (n *trieNode) insert(s Itemset, idx int) {
	cur := n
	for _, it := range s {
		if cur.children == nil {
			cur.children = make(map[txn.Item]*trieNode)
		}
		next, ok := cur.children[it]
		if !ok {
			next = newTrieNode()
			cur.children[it] = next
		}
		cur = next
	}
	cur.terminal = append(cur.terminal, idx)
}

// countIn accumulates, into counts, every registered itemset that is a
// subset of the sorted transaction suffix t.
func (n *trieNode) countIn(t txn.Transaction, counts []int) {
	for _, idx := range n.terminal {
		counts[idx]++
	}
	if n.children == nil {
		return
	}
	// Itemsets and transactions are sorted, so each child item can only
	// match at positions carrying that exact item; iterate the (usually
	// shorter) transaction suffix and descend on matches.
	if len(n.children) < len(t) {
		for it, child := range n.children {
			// Binary search for it in t.
			lo, hi := 0, len(t)
			for lo < hi {
				mid := (lo + hi) / 2
				if t[mid] < it {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo < len(t) && t[lo] == it {
				child.countIn(t[lo+1:], counts)
			}
		}
		return
	}
	for i, it := range t {
		if child, ok := n.children[it]; ok {
			child.countIn(t[i+1:], counts)
		}
	}
}

// CountItemsets returns, for each itemset in sets, the absolute number of
// transactions of d containing it, computed in a single scan of d. The empty
// itemset counts every transaction. This is the single-scan measure
// computation FOCUS relies on when extending lits-models to their GCR
// (Section 3.3.1).
func CountItemsets(d *txn.Dataset, sets []Itemset) []int {
	return CountItemsetsP(d, sets, 1)
}

// CountItemsetsP is CountItemsets with a parallelism knob; the backend
// follows the engine's one decision (useVertical). Counts are
// bit-identical for every backend and worker count.
func CountItemsetsP(d *txn.Dataset, sets []Itemset, parallelism int) []int {
	return CountItemsetsC(d, sets, parallelism, CounterDefault)
}

// CountItemsetsC is CountItemsetsP with the backend-forcing seam: a
// parallelism (0 = the process default, 1 = the exact serial path, n = n
// workers) and a Counter. The trie backend walks every transaction
// through a candidate prefix trie; the bitmap backend intersects per-item
// transaction bitsets from the dataset's memoized vertical index;
// CounterAuto runs the bitmap wherever its index fits in memory. Both
// backends produce bit-identical integer counts (pinned by the
// differential harness in count_diff_test.go).
func CountItemsetsC(d *txn.Dataset, sets []Itemset, parallelism int, counter Counter) []int {
	if len(sets) == 0 || d.Len() == 0 {
		return make([]int, len(sets))
	}
	if useVertical(counter, d) {
		return CountItemsetsBitmap(d, sets, parallelism)
	}
	return CountItemsetsTrie(d, sets, parallelism)
}

// CountItemsetsBitmap counts through the vertical TID-bitmap index
// (building and memoizing it on d on first use), sharding the itemsets —
// not the transactions — across workers.
func CountItemsetsBitmap(d *txn.Dataset, sets []Itemset, parallelism int) []int {
	if len(sets) == 0 || d.Len() == 0 {
		return make([]int, len(sets))
	}
	return VerticalIndexOf(d, parallelism).Count(sets, parallelism)
}

// CountItemsetsTrie counts through the prefix-trie subset scan: the
// transactions are sharded into contiguous chunks, each worker descends the
// shared read-only trie into a private count vector, and the per-shard
// vectors are summed in shard order. Counts are integers, so the merged
// result is bit-identical to the serial scan for every worker count.
func CountItemsetsTrie(d *txn.Dataset, sets []Itemset, parallelism int) []int {
	counts := make([]int, len(sets))
	if len(sets) == 0 || d.Len() == 0 {
		return counts
	}
	root := newTrieNode()
	for i, s := range sets {
		root.insert(s, i)
	}
	if parallel.Workers(parallelism) == 1 {
		for _, t := range d.Txns {
			root.countIn(t, counts)
		}
		return counts
	}
	parallel.MapReduce(len(d.Txns), parallelism,
		func() []int { return make([]int, len(sets)) },
		func(acc []int, c parallel.Chunk) {
			for _, t := range d.Txns[c.Lo:c.Hi] {
				root.countIn(t, acc)
			}
		},
		func(acc []int) {
			for i, v := range acc {
				counts[i] += v
			}
		})
	return counts
}

// ItemCountsP returns the absolute per-item support counts of d (Apriori's
// pass 1) with a parallelism knob. Per-item counts are the mergeable
// pass-1 summary of a windowed monitor: vectors from disjoint batches add
// (and subtract) into the counts a single scan of their union would produce.
func ItemCountsP(d *txn.Dataset, parallelism int) []int {
	return NewSource(d, parallelism, CounterDefault).ItemCounts()
}

// CountItemsetsBrute is the quadratic reference implementation of
// CountItemsets, retained for property tests and the ablation benchmark.
func CountItemsetsBrute(d *txn.Dataset, sets []Itemset) []int {
	counts := make([]int, len(sets))
	for _, t := range d.Txns {
		for i, s := range sets {
			if t.ContainsAll(s) {
				counts[i]++
			}
		}
	}
	return counts
}
