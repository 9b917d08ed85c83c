package apriori

import (
	"fmt"
	"math/rand"

	"focus/internal/bitset"
	"focus/internal/txn"
)

// This file implements the lits bootstrap replicate as an exploded view
// pair. A replicate draws two with-replacement resamples from a pool and
// mines both. Instead of materializing the resamples, a view counts how
// often it drew each pool row and gives every drawn copy its own bit: the
// m copies of a row take m consecutive bits, rows in pool order. One
// sequential pass over the drawn rows of the packed pool fills one n-bit
// bitmap for each item frequent in either view of the pair, plus the
// view's root pair table (counted once per distinct row, weighted by its
// copies), and the unweighted Eclat/dEclat DFS of mine_vertical.go mines
// the bitmaps. They are the vertical index of the materialized resample
// with its rows reordered and restricted to the pair's items; a support
// is a popcount, which no row order changes, so supports, DFS order and
// FrequentSets are bit-identical to mining the resample with any backend.
// An itemset frequent in the other view alone has all its items among the
// pair's, so View.Count serves it from the same bitmaps.

// Pool is a bootstrap pool packed for replicate views: every transaction's
// item ids, row after row, in one block. A Pool is read-only once built
// and is shared by every worker's ViewPair.
type Pool struct {
	numItems int
	off      []int      // row t holds ids[off[t]:off[t+1]]
	ids      []txn.Item // rows in pool order, each sorted-unique
}

// NewPool packs the transactions of d. d must be valid (sorted-unique
// transactions inside the universe), as every pooled dataset is.
func NewPool(d *txn.Dataset) *Pool {
	total := 0
	for _, t := range d.Txns {
		total += len(t)
	}
	p := &Pool{numItems: d.NumItems, off: make([]int, 1, len(d.Txns)+1), ids: make([]txn.Item, 0, total)}
	for _, t := range d.Txns {
		p.ids = append(p.ids, t...)
		p.off = append(p.off, len(p.ids))
	}
	return p
}

// row returns the item ids of pool row t.
func (p *Pool) row(t int) []txn.Item { return p.ids[p.off[t]:p.off[t+1]] }

// ViewPair is one bootstrap worker's replicate state: the two views of a
// resample pair over a shared pool. Its buffers are reused across draws;
// a ViewPair is not safe for concurrent use.
type ViewPair struct {
	V1, V2 View
	slot   []int32 // item -> bitmap index of the pair's items, -1 for others
}

// NewViewPair returns an empty view pair over p.
func NewViewPair(p *Pool) *ViewPair {
	vp := &ViewPair{slot: make([]int32, p.numItems)}
	vp.V1.init(p)
	vp.V2.init(p)
	return vp
}

// Draw draws a fresh resample pair of n1 and n2 rows, consuming the RNG
// stream of two txn.Resample calls: n1, then n2 rng.Intn(pool rows).
func (vp *ViewPair) Draw(n1, n2 int, rng *rand.Rand) {
	vp.V1.reset()
	vp.V1.draw(n1, rng)
	vp.V2.reset()
	vp.V2.draw(n2, rng)
}

// Extend draws the D2 = D1 + Δ pair of extension bootstraps: a fresh first
// view of n1 rows, and a second view holding the first's rows followed by
// blockN more draws.
func (vp *ViewPair) Extend(n1, blockN int, rng *rand.Rand) {
	vp.V1.reset()
	vp.V1.draw(n1, rng)
	copy(vp.V2.mult, vp.V1.mult)
	vp.V2.n = vp.V1.n
	vp.V2.draw(blockN, rng)
}

// Mine mines both views at minSupport, through the unweighted vertical DFS
// over their exploded bitmaps. Mining is serial: bootstrap parallelism
// lives at the replicate level, one pair per worker.
func (vp *ViewPair) Mine(minSupport float64) (*FrequentSet, *FrequentSet, error) {
	if minSupport <= 0 || minSupport > 1 {
		return nil, nil, minSupportError(minSupport)
	}
	vp.V1.countItems()
	vp.V2.countItems()
	min1, min2 := minCountFor(minSupport, vp.V1.N()), minCountFor(minSupport, vp.V2.N())
	slots := 0
	for it := range vp.slot {
		if vp.V1.counts[it] >= min1 || vp.V2.counts[it] >= min2 {
			vp.slot[it] = int32(slots)
			slots++
		} else {
			vp.slot[it] = -1
		}
	}
	return vp.V1.mine(vp.slot, slots, min1, minSupport), vp.V2.mine(vp.slot, slots, min2, minSupport), nil
}

// View is one side of a replicate: the pool rows one resample drew and,
// once its pair is mined, the resample's bitmap of each of the pair's
// items.
type View struct {
	pool   *Pool
	mult   []int32 // times each pool row was drawn
	n      int     // rows drawn
	counts []int   // support of each item in the view
	slot   []int32 // the pair's item -> bitmap index
	words  int     // words per bitmap: Words(n)
	store  bitset.Set
	pairs  pairTable
	roots  []vnode
	miner  *vminer
	acc    bitset.Set // Count's intersection scratch
}

func (v *View) init(p *Pool) {
	v.pool = p
	v.mult = make([]int32, len(p.off)-1)
	v.counts = make([]int, p.numItems)
}

func (v *View) reset() {
	clear(v.mult)
	v.n = 0
}

// draw adds n with-replacement draws from the pool, one rng.Intn per row.
func (v *View) draw(n int, rng *rand.Rand) {
	if len(v.mult) == 0 {
		panic("apriori: cannot draw from an empty pool")
	}
	for i := 0; i < n; i++ {
		v.mult[rng.Intn(len(v.mult))]++
	}
	v.n += n
}

// countItems counts the drawn rows' items.
func (v *View) countItems() {
	clear(v.counts)
	for t, m := range v.mult {
		if m > 0 {
			for _, it := range v.pool.row(t) {
				v.counts[it] += int(m)
			}
		}
	}
}

// N returns the number of rows drawn.
func (v *View) N() int { return v.n }

// set returns the bitmap of the pair's item with bitmap index k.
func (v *View) set(k int32) bitset.Set {
	return v.store[int(k)*v.words : (int(k)+1)*v.words]
}

// mine explodes the view into bitmaps of the pair's items (slot maps an
// item to its bitmap index, slots counts them) and mines it.
func (v *View) mine(slot []int32, slots, minCount int, minSupport float64) *FrequentSet {
	n := v.n
	v.slot = slot
	// The scratch sets are length-locked: a view keeps its row count across
	// the replicates of one qualification.
	if v.miner == nil || bitset.Words(n) != v.words {
		v.words = bitset.Words(n)
		v.miner = newVminer(n)
		v.acc = bitset.New(n)
	}
	v.store = resized(v.store, slots*v.words)
	roots := v.roots[:0]
	for it, c := range v.counts {
		if c >= minCount {
			roots = append(roots, vnode{item: txn.Item(it), set: v.set(slot[it]), count: c})
		}
	}
	v.roots = roots
	pt := &v.pairs
	pt.reset(roots, len(v.counts))
	pos := 0
	for t, m := range v.mult {
		if m == 0 {
			continue
		}
		// The m copies of row t take bits [pos, end).
		end := pos + int(m)
		buf := pt.buf[:0]
		for _, it := range v.pool.row(t) {
			if k := slot[it]; k >= 0 {
				set := v.set(k)
				for b := pos; b < end; b++ {
					set[b/64] |= 1 << (b % 64)
				}
				if r := pt.rank[it]; r >= 0 {
					buf = append(buf, r)
				}
			}
		}
		pt.buf = buf
		pt.add(buf, m)
		pos = end
	}
	out := &FrequentSet{MinSupport: minSupport, N: n}
	if len(roots) == 0 {
		return out
	}
	m := v.miner
	m.reset(minCount, pt)
	m.mineRoots(roots, 0, len(roots))
	out.Itemsets, out.Counts = m.its, m.counts
	m.its, m.counts = nil, nil
	return out
}

// Count returns the support under the view of each itemset, after its pair
// was mined. The bitmaps cover the items frequent in either view, so every
// item of an itemset must be among them or absent from this view (such an
// itemset counts 0); the GCR of the pair's mined sets always is.
func (v *View) Count(sets []Itemset) []int {
	counts := make([]int, len(sets))
	for i, s := range sets {
		counts[i] = v.countOne(s)
	}
	return counts
}

func (v *View) countOne(s Itemset) int {
	for _, it := range s {
		if int(it) < 0 || int(it) >= len(v.counts) || v.counts[it] == 0 {
			return 0 // item outside the universe or in no drawn row
		}
		if v.slot[it] < 0 {
			panic(fmt.Sprintf("apriori: View.Count of item %d, frequent in neither view of the pair", it))
		}
	}
	switch len(s) {
	case 0:
		return v.n
	case 1:
		return v.counts[s[0]]
	case 2:
		return bitset.AndCount(v.set(v.slot[s[0]]), v.set(v.slot[s[1]]))
	}
	acc := bitset.AndInto(v.acc, v.set(v.slot[s[0]]), v.set(v.slot[s[1]]))
	for _, it := range s[2 : len(s)-1] {
		acc.And(v.set(v.slot[it]))
	}
	return bitset.AndCount(acc, v.set(v.slot[s[len(s)-1]]))
}

// UseViewBootstrap reports whether lits bootstrap replicates over the pool
// d run as exploded view pairs through the vertical engine: yes unless a
// worker's pair would blow the engine's memory cap. A pair holds, per
// view, one Words(n)-word bitmap for each item frequent in either view: at
// most the universe's NumItems items over Words(n1)+Words(n2) <=
// Words(d.Len())+1 words, as a replicate's two views draw as many rows as
// the pool holds.
func UseViewBootstrap(d *txn.Dataset) bool {
	return int64(d.NumItems)*int64(bitset.Words(d.Len())+1)*8 <= autoIndexBytes
}
