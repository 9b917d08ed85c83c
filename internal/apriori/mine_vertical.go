package apriori

import (
	"focus/internal/bitset"
	"focus/internal/parallel"
	"focus/internal/txn"
)

// This file implements the vertical miner: Eclat-style depth-first search
// over the TID-bitmap index (Zaki, TKDE 2000), with the dEclat diffset
// refinement at deeper levels. A node of the search is a prefix itemset P
// with its transaction set t(P); extending P by item y intersects bitsets
// (support = popcount), so mining never generates candidate lists
// or walks transactions. At shallow levels nodes carry tidsets and
// support(P∪{y}) = |t(P) ∩ t(y)|; from diffsetLevel on they carry diffsets
// relative to their parent — d(Py) = t(P) \ t(y) — and support(P∪{y}) =
// support(P) − |d(Py)|, with sibling diffsets composing as d(Pxy) =
// d(Py) \ d(Px). Supports are exact either way, and DFS preorder with
// ascending extension items IS lexicographic order (shorter prefixes
// first), so the output matches the levelwise miner's sorted FrequentSet
// bit for bit — the equivalence the differential harness in
// mine_diff_test.go pins down.
//
// Bootstrap replicates run the same walk: a replicate view gives every
// drawn copy of a transaction its own bit, so its bitmaps are a vertical
// index of the resample itself — see view.go.

// diffsetLevel is the itemset size from which miner nodes switch from
// tidsets to parent-relative diffsets. Sizes 1 and 2 stay on tidsets (the
// per-item index bitsets and their pairwise intersections); deeper prefixes
// are dense in their parent's tids, so the complement is the cheaper set to
// carry and to count.
const diffsetLevel = 3

// vnode is one extension of the current prefix P: the itemset P∪{item}
// with its support count and its set — t(P∪{item}) in tidset mode, or
// d = t(P) \ t(item) (tids of P lost by the extension) in diffset mode.
type vnode struct {
	item  txn.Item
	set   bitset.Set
	count int
}

// pairTable holds the supports of item pairs as a triangle whose row a
// lists the pairs (a, b) for b > a. Its keys are the frequent items' root
// ranks (a mine's own table) or, when byItem, the item ids of the whole
// universe (the WindowMiner's aggregate). Intersecting bitsets for all
// O(roots²) candidate pairs costs O(roots² × words) regardless of how few
// pairs are frequent; counting pairs inside each transaction costs
// O(Σ |frequent items of t|²) — far less on sparse data — and lets the DFS
// materialize a bitset only for pairs that pass the threshold. Counts are
// exact integers either way, so the output is unchanged.
type pairTable struct {
	side   int     // keys are 0..side-1
	byItem bool    // keys are item ids, not root ranks
	counts []int32 // triangular: row a at base(a), pair (a, b) at base(a)+b-a-1
	rank   []int32 // item -> root rank, -1 if infrequent
	buf    []int32 // per-transaction frequent-rank scratch
}

// base returns the offset of row a.
func (pt *pairTable) base(a int) int { return a * (2*pt.side - a - 1) / 2 }

// key returns root i's key: its item id when byItem, else its rank.
func (pt *pairTable) key(roots []vnode, i int) int {
	if pt.byItem {
		return int(roots[i].item)
	}
	return i
}

// reset sizes the table for the ranks of roots over numItems items,
// reusing buffers, and ranks the roots.
func (pt *pairTable) reset(roots []vnode, numItems int) {
	pt.side = len(roots)
	pt.counts = resized(pt.counts, pt.side*(pt.side-1)/2)
	if cap(pt.rank) < numItems {
		pt.rank = make([]int32, numItems)
	} else {
		pt.rank = pt.rank[:numItems]
	}
	for i := range pt.rank {
		pt.rank[i] = -1
	}
	for i, x := range roots {
		pt.rank[x.item] = int32(i)
	}
}

// resized returns s resized to n zeroed elements, reusing its array when
// it is big enough and otherwise allocating a quarter more than n, so a
// buffer whose size varies a little between reuses (a bootstrap view's
// bitmaps and pair table) stops reallocating after a few replicates.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	s = s[:n]
	clear(s)
	return s
}

// add counts the pairs of one transaction, given by the ascending keys of
// its frequent items, with the given sign.
func (pt *pairTable) add(keys []int32, sign int32) {
	for a := 0; a+1 < len(keys); a++ {
		ia := int(keys[a])
		row := pt.counts[pt.base(ia):] // pair (ia, b) at row[b-ia-1]
		for _, b := range keys[a+1:] {
			row[int(b)-ia-1] += sign
		}
	}
}

// countPairs fills the table with the supports of all pairs of roots in
// d. Transactions are sorted-unique (txn.Dataset's validated form), and
// root items ascend, so the collected ranks ascend too.
func (pt *pairTable) countPairs(d *txn.Dataset, roots []vnode) {
	pt.reset(roots, d.NumItems)
	for _, tr := range d.Txns {
		buf := pt.buf[:0]
		for _, it := range tr {
			if ri := pt.rank[it]; ri >= 0 {
				buf = append(buf, ri)
			}
		}
		pt.buf = buf
		pt.add(buf, 1)
	}
}

// vminer is one worker's reusable state for a vertical DFS mine: a scratch
// bitset pool, per-depth extension buffers, the growing prefix, and the
// output accumulators. Reset makes it reusable across mines (bootstrap
// replicates); a vminer is not safe for concurrent use. pairs serves the
// supports of the root-level pairs.
type vminer struct {
	minCount int
	pool     *bitset.Pool
	pairs    *pairTable
	levels   [][]vnode
	cur      Itemset
	its      []Itemset
	counts   []int
}

func newVminer(numTids int) *vminer {
	return &vminer{pool: bitset.NewPool(numTids)}
}

// reset prepares the miner for a new mine over the given root-level pair
// supports; buffers (pool, levels, prefix) carry over, output accumulators
// start fresh (they escape into the returned FrequentSet).
func (m *vminer) reset(minCount int, pairs *pairTable) {
	m.minCount = minCount
	m.pairs = pairs
	m.cur = m.cur[:0]
	m.its = nil
	m.counts = nil
}

// childBuf returns the reusable extension buffer of the given depth.
func (m *vminer) childBuf(depth int) []vnode {
	for len(m.levels) <= depth {
		m.levels = append(m.levels, nil)
	}
	return m.levels[depth][:0]
}

// emit records the current prefix with its support.
func (m *vminer) emit(count int) {
	m.its = append(m.its, append(Itemset(nil), m.cur...))
	m.counts = append(m.counts, count)
}

// buildChildren computes the frequent 1-extensions of the current prefix
// (node x) from its later siblings ys, into buf. The support is computed
// fused (no materialization); only frequent children materialize a set
// from the pool. diffMode says the siblings carry diffsets; toDiff says the
// children switch from tidsets to diffsets at this level.
func (m *vminer) buildChildren(x *vnode, ys []vnode, diffMode, toDiff bool, buf []vnode) []vnode {
	for j := range ys {
		y := &ys[j]
		var c int
		switch {
		case diffMode:
			c = x.count - bitset.AndNotCount(y.set, x.set)
		case toDiff:
			c = x.count - bitset.AndNotCount(x.set, y.set)
		default:
			c = bitset.AndCount(x.set, y.set)
		}
		if c < m.minCount {
			continue
		}
		var set bitset.Set
		switch {
		case diffMode:
			set = bitset.AndNotInto(m.pool.Get(), y.set, x.set)
		case toDiff:
			set = bitset.AndNotInto(m.pool.Get(), x.set, y.set)
		default:
			set = bitset.AndInto(m.pool.Get(), x.set, y.set)
		}
		buf = append(buf, vnode{item: y.item, set: set, count: c})
	}
	return buf
}

// extend explores, in DFS preorder, every frequent itemset extending the
// current prefix by items of exts (all of size len(cur)+1, sharing the
// prefix cur).
func (m *vminer) extend(exts []vnode, diffMode bool) {
	depth := len(m.cur) + 1
	for i := range exts {
		x := &exts[i]
		m.cur = append(m.cur, x.item)
		m.emit(x.count)
		if i+1 < len(exts) {
			toDiff := !diffMode && depth+1 >= diffsetLevel
			children := m.buildChildren(x, exts[i+1:], diffMode, toDiff, m.childBuf(depth))
			m.levels[depth] = children
			if len(children) > 0 {
				m.extend(children, diffMode || toDiff)
			}
			for k := range children {
				m.pool.Put(children[k].set)
			}
		}
		m.cur = m.cur[:len(m.cur)-1]
	}
}

// rootChildren computes root i's frequent 2-itemset extensions by one scan
// of its row of the pair table; only frequent pairs materialize a set.
func (m *vminer) rootChildren(roots []vnode, i int, toDiff bool, buf []vnode) []vnode {
	x := &roots[i]
	pt := m.pairs
	a := pt.key(roots, i)
	row := pt.counts[pt.base(a):]
	for j := i + 1; j < len(roots); j++ {
		c := int(row[pt.key(roots, j)-a-1])
		if c < m.minCount {
			continue
		}
		y := &roots[j]
		var set bitset.Set
		if toDiff {
			set = bitset.AndNotInto(m.pool.Get(), x.set, y.set)
		} else {
			set = bitset.AndInto(m.pool.Get(), x.set, y.set)
		}
		buf = append(buf, vnode{item: y.item, set: set, count: c})
	}
	return buf
}

// mineRoots mines the subtrees of the frequent items roots[lo:hi],
// extending each against ALL later roots (so a parallel shard still sees
// every sibling). Root sets are borrowed from the index and never
// returned to the pool.
func (m *vminer) mineRoots(roots []vnode, lo, hi int) {
	for i := lo; i < hi; i++ {
		x := &roots[i]
		m.cur = append(m.cur[:0], x.item)
		m.emit(x.count)
		if i+1 < len(roots) {
			toDiff := diffsetLevel <= 2
			children := m.rootChildren(roots, i, toDiff, m.childBuf(1))
			m.levels[1] = children
			if len(children) > 0 {
				m.extend(children, toDiff)
			}
			for k := range children {
				m.pool.Put(children[k].set)
			}
		}
	}
}

// rootNodes collects the frequent items as root extensions of the empty
// prefix, borrowing the index's per-item bitsets.
func rootNodes(ix *VerticalIndex, itemCounts []int, minCount int, buf []vnode) []vnode {
	for it, c := range itemCounts {
		if c >= minCount {
			buf = append(buf, vnode{item: txn.Item(it), set: ix.items[it], count: c})
		}
	}
	return buf
}

// minCountFor converts a fractional support threshold into the absolute
// count threshold shared by every miner (at least 1).
func minCountFor(minSupport float64, n int) int {
	minCount := int(minSupport*float64(n) + 0.999999)
	if minCount < 1 {
		minCount = 1
	}
	return minCount
}

// MineVertical mines d through the vertical engine regardless of the
// engine's memory cap — bit-identical to Mine/MineWith on any backend.
func MineVertical(d *txn.Dataset, minSupport float64, parallelism int) (*FrequentSet, error) {
	return NewEngine(d, parallelism, CounterBitmap).Mine(minSupport)
}

// mineVertical runs the Eclat/dEclat DFS over d's index ix. itemCounts are
// the pass-1 supports and n the transaction total. Frequent-item subtrees are sharded across workers;
// per-shard outputs concatenate in shard order, which is DFS preorder ==
// lexicographic order, so results are identical for every worker count.
func mineVertical(d *txn.Dataset, ix *VerticalIndex, itemCounts []int, n int, minSupport float64, parallelism int) (*FrequentSet, error) {
	if minSupport <= 0 || minSupport > 1 {
		return nil, minSupportError(minSupport)
	}
	out := &FrequentSet{MinSupport: minSupport, N: n}
	if n == 0 {
		return out, nil
	}
	minCount := minCountFor(minSupport, n)
	roots := rootNodes(ix, itemCounts, minCount, nil)
	if len(roots) == 0 {
		return out, nil
	}
	pairs := &pairTable{}
	pairs.countPairs(d, roots)
	workers := parallel.Workers(parallelism)
	if workers > len(roots) {
		workers = len(roots)
	}
	if workers == 1 {
		m := newVminer(ix.n)
		m.reset(minCount, pairs)
		m.mineRoots(roots, 0, len(roots))
		out.Itemsets, out.Counts = m.its, m.counts
		return out, nil
	}
	chunks := parallel.Chunks(len(roots), workers)
	miners := make([]*vminer, len(chunks))
	parallel.Do(len(chunks), len(chunks), func(shard int, _ parallel.Chunk) {
		m := newVminer(ix.n)
		m.reset(minCount, pairs) // read-only during mining, safe to share
		m.mineRoots(roots, chunks[shard].Lo, chunks[shard].Hi)
		miners[shard] = m
	})
	total := 0
	for _, m := range miners {
		total += len(m.its)
	}
	out.Itemsets = make([]Itemset, 0, total)
	out.Counts = make([]int, 0, total)
	for _, m := range miners {
		out.Itemsets = append(out.Itemsets, m.its...)
		out.Counts = append(out.Counts, m.counts...)
	}
	return out, nil
}
