package apriori

import (
	"math/rand"

	"focus/internal/bitset"
	"focus/internal/txn"
)

// View is a bootstrap view over an indexed base dataset: a with-replacement
// draw held as a txn.Draw multiplicity vector instead of a materialized
// dataset. Every support under the view is a multiplicity-weighted count
// through the base dataset's memoized vertical index — Mine runs the
// weighted vertical DFS, Count weighs intersections — so a bootstrap
// replicate copies no transactions and builds no per-replicate index, and
// its integer counts are bit-identical to mining/counting the materialized
// resample. A View's buffers (draw vector, miner scratch, intersection
// scratch) are reused across Draw calls; a View is not safe for concurrent
// use — give each bootstrap worker its own.
type View struct {
	d          *txn.Dataset
	ix         *VerticalIndex
	draw       txn.Draw
	itemCounts []int
	miner      *vminer
	pairs      *pairTable
	scratch    bitset.Set
}

// NewView returns a view over d, building (or reusing) d's memoized
// vertical index. d must not be mutated while views over it are in use.
func NewView(d *txn.Dataset, parallelism int) *View {
	return &View{
		d:          d,
		ix:         VerticalIndexOf(d, parallelism),
		itemCounts: make([]int, d.NumItems),
	}
}

// Draw resets the view to a fresh draw of n transactions, consuming the
// identical RNG stream txn.Resample would (see txn.DrawInto).
func (v *View) Draw(n int, rng *rand.Rand) {
	v.draw.Reset(v.d.Len())
	v.d.DrawInto(&v.draw, n, rng)
	v.refresh()
}

// Extend resets the view to base's draw plus blockN additional draws — the
// D2 = D1 + Δ construction of extension bootstraps.
func (v *View) Extend(base *View, blockN int, rng *rand.Rand) {
	v.draw.CopyFrom(&base.draw)
	v.d.DrawInto(&v.draw, blockN, rng)
	v.refresh()
}

// refresh recomputes the weighted pass-1 item counts of the current draw
// by one horizontal walk over the drawn transactions.
func (v *View) refresh() {
	counts := v.itemCounts
	for i := range counts {
		counts[i] = 0
	}
	for t, m := range v.draw.Mult {
		if m > 0 {
			for _, it := range v.d.Txns[t] {
				counts[it] += int(m)
			}
		}
	}
}

// N returns the number of transactions drawn.
func (v *View) N() int { return v.draw.N }

// Mine mines the frequent itemsets of the view through the weighted
// vertical DFS — bit-identical to mining the materialized resample with
// any backend. Mining is serial: bootstrap parallelism lives at the
// replicate level, one view per worker.
func (v *View) Mine(minSupport float64) (*FrequentSet, error) {
	if minSupport <= 0 || minSupport > 1 {
		return nil, minSupportError(minSupport)
	}
	out := &FrequentSet{MinSupport: minSupport, N: v.draw.N}
	if v.draw.N == 0 {
		return out, nil
	}
	minCount := minCountFor(minSupport, v.draw.N)
	if v.miner == nil {
		v.miner = newVminer(v.ix.n)
		pt := &pairTable{}
		v.pairs = pt
		v.miner.pairCount = pt.at
	}
	m := v.miner
	m.reset(v.draw.Mult, minCount)
	roots := rootNodes(v.ix, v.itemCounts, minCount, m.childBuf(0))
	m.levels[0] = roots
	v.pairs.countPairs(v.d, v.draw.Mult, roots)
	m.mineRoots(roots, 0, len(roots))
	out.Itemsets, out.Counts = m.its, m.counts
	m.its, m.counts = nil, nil
	return out, nil
}

// Count returns the multiplicity-weighted support of each itemset under
// the view — bit-identical to counting the materialized resample.
func (v *View) Count(sets []Itemset) []int {
	counts := make([]int, len(sets))
	for i, s := range sets {
		counts[i] = v.countOne(s)
	}
	return counts
}

func (v *View) countOne(s Itemset) int {
	for _, it := range s {
		if int(it) < 0 || int(it) >= len(v.ix.items) || v.ix.items[it] == nil {
			return 0 // item outside the universe or in no base transaction
		}
	}
	switch len(s) {
	case 0:
		return v.draw.N
	case 1:
		return v.itemCounts[s[0]]
	case 2:
		return bitset.WeightAnd(v.ix.items[s[0]], v.ix.items[s[1]], v.draw.Mult)
	}
	if v.scratch == nil {
		v.scratch = bitset.New(v.ix.n)
	}
	acc := bitset.AndInto(v.scratch, v.ix.items[s[0]], v.ix.items[s[1]])
	for _, it := range s[2 : len(s)-1] {
		acc.And(v.ix.items[it])
	}
	return bitset.WeightAnd(acc, v.ix.items[s[len(s)-1]], v.draw.Mult)
}

// UseViewBootstrap reports whether lits bootstrap replicates over the pool
// d should run as weighted views through the vertical engine: yes unless
// the knob forces the trie, the pool is tiny, or the index would blow the
// auto memory cap. One shared index amortizes over every replicate, so the
// density probe of per-scan resolution does not apply.
func UseViewBootstrap(c Counter, d *txn.Dataset) bool {
	MustCounter(c)
	switch c {
	case CounterTrie:
		return false
	case CounterBitmap:
		return true
	}
	if d.HasMemo() {
		return true
	}
	if d.Len() < 128 {
		return false
	}
	if d.NumItems > 0 && int64(d.NumItems)*int64(bitset.Words(d.Len()))*8 > autoIndexBytes {
		return false
	}
	return true
}
