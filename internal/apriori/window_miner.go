package apriori

import (
	"focus/internal/bitset"
	"focus/internal/txn"
)

// WindowMiner is the vertical engine's streaming form: the pair counts of
// a sliding window of sealed batches, maintained incrementally. Push folds
// a batch's full-universe pair counts into the window aggregate; Pop
// subtracts the expired batch's. The window itself — its batches and
// their summed pass-1 item counts — belongs to the caller and is handed to
// Mine, which starts two levels deep for free: roots come from the item
// counts, level-2 supports from the aggregated pair counts, and only the
// deeper DFS touches bitsets, over a window tid-bitmap concatenated from
// the batches' memoized per-batch indexes (a word-shift copy, never a
// transaction rescan). Counts are exact integers, so the mined
// FrequentSet is bit-identical to mining the window's concatenated dataset
// with any backend. A WindowMiner is not safe for concurrent use.
type WindowMiner struct {
	pairs pairTable // aggregated full-universe pair counts, keyed by item

	combined []bitset.Set // per-item window bitmaps (rebuilt per mine)
	words    int          // words per combined bitmap
	store    bitset.Set   // backing array of combined
	miner    *vminer
	roots    []vnode
}

// windowPairBytes caps the full-universe pair table (numItems²/2 × 4
// bytes); beyond it the incremental miner is not worth its memory and
// UseWindowMiner steers callers to MineConcat.
const windowPairBytes = 1 << 26

// UseWindowMiner reports whether a streaming lits window over a universe
// of numItems items should mine through an incremental WindowMiner: yes
// unless the pair table would be outsized (past about 5,792 items), in
// which case the window mines its batches through MineConcat.
func UseWindowMiner(numItems int) bool {
	return numItems > 0 && int64(numItems)*int64(numItems)*2 <= windowPairBytes
}

// MineConcat mines the rows of parts, taken in order as one dataset whose
// pass-1 item counts are itemCounts: the path of a window that keeps no
// WindowMiner — one over a universe where UseWindowMiner refuses the
// full-universe pair table, or a snapshot that never advances. One pass over the rows fills a
// bitmap for each frequent item and a pair table keyed by root rank — the
// fill kernel of bootstrap views, every row taken once — and the
// Eclat/dEclat DFS mines them, bit-identical to mining the concatenated
// dataset with any backend. It keeps no state between calls and builds no
// per-batch index, so such a window holds only its rows and pass-1 counts.
func MineConcat(parts []*txn.Dataset, itemCounts []int, minSupport float64) (*FrequentSet, error) {
	if minSupport <= 0 || minSupport > 1 {
		return nil, minSupportError(minSupport)
	}
	n := 0
	for _, d := range parts {
		n += d.Len()
	}
	minCount := minCountFor(minSupport, n)
	var f fillMiner
	f.start(n, itemCounts, nil, 0, minCount)
	for _, d := range parts {
		for _, t := range d.Txns {
			f.row(t, 1)
		}
	}
	return f.mine(minCount, minSupport), nil
}

// NewWindowMiner returns an empty window miner over a universe of numItems
// items.
func NewWindowMiner(numItems int) *WindowMiner {
	return &WindowMiner{
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

// Push adds a sealed batch's pair counts to the window and primes its
// memoized vertical index (shared with the window's GCR counts).
func (wm *WindowMiner) Push(d *txn.Dataset, parallelism int) {
	VerticalIndexOf(d, parallelism)
	wm.addPairs(d, 1)
}

// Pop subtracts an expired batch's pair counts.
func (wm *WindowMiner) Pop(d *txn.Dataset) { wm.addPairs(d, -1) }

// buildCombined concatenates the n rows of parts' per-item bitmaps into
// window bitmaps: batch b's bit t lands at offset(b) + t. Word-shift copies
// from the memoized per-batch indexes — no transaction is revisited.
func (wm *WindowMiner) buildCombined(parts []*txn.Dataset, n int, roots []vnode) {
	wm.words = bitset.Words(n)
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
	for _, d := range parts {
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

// Mine mines the window of parts — the batches pushed and not popped,
// oldest first, whose summed pass-1 item counts are itemCounts —
// bit-identical to mining their concatenation with any backend, and to
// MineConcat over the same arguments. The DFS is serial: streaming
// windows are modest, and window advance, not mining parallelism, is the
// budget here.
func (wm *WindowMiner) Mine(parts []*txn.Dataset, itemCounts []int, minSupport float64) (*FrequentSet, error) {
	if minSupport <= 0 || minSupport > 1 {
		return nil, minSupportError(minSupport)
	}
	n := 0
	for _, d := range parts {
		n += d.Len()
	}
	out := &FrequentSet{MinSupport: minSupport, N: n}
	if n == 0 {
		return out, nil
	}
	minCount := minCountFor(minSupport, n)
	// The miner's scratch pool is length-locked; recreate it when the
	// window's row count crosses a word boundary (steady-state slides keep
	// the length, so this is a startup cost only).
	if wm.miner == nil || wm.words != bitset.Words(n) {
		wm.miner = newVminer(n)
	}
	m := wm.miner
	m.reset(minCount, &wm.pairs)
	roots := wm.roots[:0]
	for it, c := range itemCounts {
		if c >= minCount {
			roots = append(roots, vnode{item: txn.Item(it), count: c})
		}
	}
	wm.roots = roots
	if len(roots) == 0 {
		return out, nil
	}
	wm.buildCombined(parts, n, roots)
	m.mineRoots(roots, 0, len(roots))
	out.Itemsets, out.Counts = m.its, m.counts
	m.its, m.counts = nil, nil
	return out, nil
}
