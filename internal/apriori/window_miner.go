package apriori

import (
	"focus/internal/bitset"
	"focus/internal/txn"
)

// WindowMiner is the vertical engine's streaming form: the mining state of
// a sliding window of sealed batches, maintained incrementally. Push folds
// a batch's pass-1 item counts and its full-universe pair counts into the
// window aggregates; Pop subtracts the expired batch's. A mine then starts
// two levels deep for free — roots come from the aggregated item counts,
// level-2 supports from the aggregated pair counts — and only the deeper
// DFS touches bitsets, over a window tid-bitmap concatenated from the
// batches' memoized per-batch indexes (a word-shift copy, never a
// transaction rescan). Counts are exact integers, so the mined FrequentSet
// is bit-identical to mining the window's concatenated dataset with any
// backend. A WindowMiner is not safe for concurrent use.
type WindowMiner struct {
	numItems int
	parts    []*txn.Dataset
	items    []int     // aggregated pass-1 counts
	pairs    pairTable // aggregated full-universe pair counts, keyed by item
	n        int

	combined []bitset.Set // per-item window bitmaps (rebuilt per mine)
	words    int          // words per combined bitmap
	store    bitset.Set   // backing array of combined
	miner    *vminer
	roots    []vnode
}

// windowPairBytes caps the full-universe pair table (numItems²/2 × 4
// bytes); beyond it the incremental miner is not worth its memory and
// UseWindowMiner steers callers back to the levelwise source path.
const windowPairBytes = 1 << 26

// UseWindowMiner reports whether a streaming lits window over a universe
// of numItems items should mine through an incremental WindowMiner: yes
// unless the pair table would be outsized.
func UseWindowMiner(numItems int) bool {
	return numItems > 0 && int64(numItems)*int64(numItems)*2 <= windowPairBytes
}

// NewWindowMiner returns an empty window miner over a universe of numItems
// items.
func NewWindowMiner(numItems int) *WindowMiner {
	return &WindowMiner{
		numItems: numItems,
		items:    make([]int, numItems),
		pairs: pairTable{
			side:   numItems,
			byItem: true,
			counts: make([]int32, numItems*(numItems-1)/2),
		},
	}
}

// addPairs folds d's pair counts into the aggregate with the given sign.
// Transactions are sorted-unique, so their items are ascending keys.
func (wm *WindowMiner) addPairs(d *txn.Dataset, sign int32) {
	for _, tr := range d.Txns {
		wm.pairs.add(tr, sign)
	}
}

// Push appends a sealed batch to the window, merging its summaries into
// the aggregates and priming its memoized vertical index (shared with the
// window's candidate counting).
func (wm *WindowMiner) Push(d *txn.Dataset, parallelism int) {
	for i, c := range VerticalIndexOf(d, parallelism).ItemCounts() {
		wm.items[i] += c
	}
	wm.addPairs(d, 1)
	wm.parts = append(wm.parts, d)
	wm.n += d.Len()
}

// Pop expires the oldest batch, subtracting its summaries.
func (wm *WindowMiner) Pop() {
	d := wm.parts[0]
	wm.parts[0] = nil
	wm.parts = wm.parts[1:]
	for i, c := range VerticalIndexOf(d, 1).ItemCounts() {
		wm.items[i] -= c
	}
	wm.addPairs(d, -1)
	wm.n -= d.Len()
}

// N returns the number of transactions in the window.
func (wm *WindowMiner) N() int { return wm.n }

// ItemCounts returns the aggregated pass-1 item counts.
func (wm *WindowMiner) ItemCounts() []int { return wm.items }

// buildCombined concatenates the batches' per-item bitmaps into window
// bitmaps: batch b's bit t lands at offset(b) + t. Word-shift copies from
// the memoized per-batch indexes — no transaction is revisited.
func (wm *WindowMiner) buildCombined(roots []vnode) {
	wm.words = bitset.Words(wm.n)
	need := len(roots) * wm.words
	if cap(wm.store) < need {
		wm.store = make(bitset.Set, need)
	} else {
		wm.store = wm.store[:need]
		for i := range wm.store {
			wm.store[i] = 0
		}
	}
	wm.combined = wm.combined[:0]
	for r := range roots {
		wm.combined = append(wm.combined, wm.store[r*wm.words:(r+1)*wm.words])
	}
	off := 0
	for _, d := range wm.parts {
		ix := VerticalIndexOf(d, 1)
		for r := range roots {
			if s := ix.items[roots[r].item]; s != nil {
				bitset.OrShiftInto(wm.combined[r], s, off)
			}
		}
		off += d.Len()
	}
	for r := range roots {
		roots[r].set = wm.combined[r]
	}
}

// Mine mines the window's frequent itemsets — bit-identical to mining the
// concatenated window dataset with any backend. The DFS is serial:
// streaming windows are modest, and window advance, not mining
// parallelism, is the budget here.
func (wm *WindowMiner) Mine(minSupport float64) (*FrequentSet, error) {
	if minSupport <= 0 || minSupport > 1 {
		return nil, minSupportError(minSupport)
	}
	out := &FrequentSet{MinSupport: minSupport, N: wm.n}
	if wm.n == 0 {
		return out, nil
	}
	minCount := minCountFor(minSupport, wm.n)
	// The miner's scratch pool is length-locked; recreate it when the
	// window's row count crosses a word boundary (steady-state slides keep
	// the length, so this is a startup cost only).
	if wm.miner == nil || wm.words != bitset.Words(wm.n) {
		wm.miner = newVminer(wm.n)
	}
	m := wm.miner
	m.reset(minCount, &wm.pairs)
	roots := wm.roots[:0]
	for it, c := range wm.items {
		if c >= minCount {
			roots = append(roots, vnode{item: txn.Item(it), count: c})
		}
	}
	wm.roots = roots
	if len(roots) == 0 {
		return out, nil
	}
	wm.buildCombined(roots)
	m.mineRoots(roots, 0, len(roots))
	out.Itemsets, out.Counts = m.its, m.counts
	m.its, m.counts = nil, nil
	return out, nil
}
