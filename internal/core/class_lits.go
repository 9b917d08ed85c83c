package core

import (
	"fmt"
	"math/rand"

	"focus/internal/apriori"
	"focus/internal/txn"
)

// litsClass is the lits-model instantiation of ModelClass (Section 2.2):
// regions are frequent itemsets, the GCR is the itemset-set union, and the
// mergeable streaming summary is the per-batch item count vector.
type litsClass struct {
	minSupport float64
}

// Lits returns the lits-model class instance mining frequent itemsets at
// the given minimum support. Mining, GCR measurement and the streaming
// windows' batch counts run the vertical engine wherever it fits in memory
// and the trie/levelwise path only where it does not; bootstrap
// replicates mine exploded view pairs and windows mine through their
// WindowMiner (or, over a wide universe, the view's fill kernel). The GCR
// takes each frequent itemset's support from the model that mined it and
// counts only the rest. Models, deviations and reports are bit-identical
// on every path.
func Lits(minSupport float64) ModelClass[*txn.Dataset, *LitsModel] {
	return litsClass{minSupport: minSupport}
}

func (litsClass) Name() string { return "lits" }

func (litsClass) Len(d *txn.Dataset) int { return d.Len() }

func (litsClass) Concat(d1, d2 *txn.Dataset) (*txn.Dataset, error) { return d1.Concat(d2) }

func (litsClass) Resample(d *txn.Dataset, n int, rng *rand.Rand) *txn.Dataset {
	return d.Resample(n, rng)
}

func (c litsClass) Induce(d *txn.Dataset, parallelism int) (*LitsModel, error) {
	return MineLitsP(d, c.minSupport, parallelism)
}

func (c litsClass) MeasureGCR(m1, m2 *LitsModel, d1, d2 *txn.Dataset, cfg *Config) ([]MeasuredRegion, error) {
	if d1.NumItems != d2.NumItems {
		return nil, fmt.Errorf("core: datasets have different item universes (%d vs %d)", d1.NumItems, d2.NumItems)
	}
	gcr := newLitsGCR(m1.FS, m2.FS)
	gcr.focus(cfg.FocusItemsets)
	c1 := apriori.CountItemsetsP(d1, gcr.sets, cfg.Parallelism)
	c2 := apriori.CountItemsetsP(d2, gcr.sets, cfg.Parallelism)
	return countRegions(c1, c2), nil
}

// countRegions pairs two aligned support-count vectors into regions.
func countRegions(c1, c2 []int) []MeasuredRegion {
	regions := make([]MeasuredRegion, len(c1))
	for i := range regions {
		regions[i] = MeasuredRegion{Alpha1: float64(c1[i]), Alpha2: float64(c2[i])}
	}
	return regions
}

// newReplicate implements the bootstrapper fast path: when the vertical
// engine fits in memory for the pool, the pool is packed once and each
// bootstrap worker owns one exploded view pair over it, whose replicates
// draw pool rows instead of materializing resampled datasets and mine
// them through the vertical DFS. Mining already counted every GCR itemset
// that is frequent in a view, so only the itemsets frequent in the other
// view alone are counted on the view's bitmaps. The RNG stream, the
// integer counts, and hence the replicate deviations are bit-identical to
// the generic Resample/Induce/MeasureGCR path — pinned by
// TestQualifyViewBootstrapEquivalence.
func (c litsClass) newReplicate(pool *txn.Dataset, cfg *Config) (func() replicateFunc, bool) {
	if !apriori.UseViewBootstrap(pool) {
		return nil, false
	}
	packed := apriori.NewPool(pool)
	keep := cfg.FocusItemsets
	minSupport := c.minSupport
	return func() replicateFunc {
		p := apriori.NewViewPair(packed)
		return func(rng *rand.Rand, n1, n2, blockN int, extension bool, f DiffFunc, g AggFunc) float64 {
			if extension {
				p.Extend(n1, blockN, rng)
			} else {
				p.Draw(n1, n2, rng)
			}
			fs1, fs2, err := p.Mine(minSupport)
			if err != nil {
				panic(err)
			}
			gcr := newLitsGCR(fs1, fs2)
			gcr.focus(keep)
			c1 := minedCounts(fs1, gcr.sets, gcr.at1, p.V1.Count)
			c2 := minedCounts(fs2, gcr.sets, gcr.at2, p.V2.Count)
			return Deviation1(countRegions(c1, c2), float64(p.V1.N()), float64(p.V2.N()), f, g)
		}
	}, true
}

// minedCounts returns the support of each GCR itemset on the data fs was
// mined from, where at gives each itemset's index in fs (-1 when not
// frequent there): a frequent itemset's mined count is its support, so
// only the others are counted, through count.
func minedCounts(fs *apriori.FrequentSet, sets []apriori.Itemset, at []int, count func([]apriori.Itemset) []int) []int {
	counts := make([]int, len(sets))
	var rest []apriori.Itemset
	var restAt []int
	for i, j := range at {
		if j >= 0 {
			counts[i] = fs.Counts[j]
		} else {
			rest = append(rest, sets[i])
			restAt = append(restAt, i)
		}
	}
	if len(rest) > 0 {
		for k, c := range count(rest) {
			counts[restAt[k]] = c
		}
	}
	return counts
}

func (c litsClass) NewWindow(parallelism int) (Window[*txn.Dataset, *LitsModel], error) {
	if c.minSupport <= 0 || c.minSupport > 1 {
		return nil, fmt.Errorf("core: minimum support %v outside (0,1]", c.minSupport)
	}
	return &litsWindow{minSupport: c.minSupport, parallelism: parallelism}, nil
}

// MeasureGCRWindows takes the support of each GCR itemset frequent in a
// window from that window's model and counts only the itemsets frequent
// in the other window alone, batch by batch.
func (litsClass) MeasureGCRWindows(m1, m2 *LitsModel, w1, w2 Window[*txn.Dataset, *LitsModel]) ([]MeasuredRegion, error) {
	lw1, ok1 := w1.(*litsWindow)
	lw2, ok2 := w2.(*litsWindow)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("core: lits MeasureGCRWindows over foreign windows %T/%T", w1, w2)
	}
	if lw1.numItems != lw2.numItems {
		return nil, fmt.Errorf("core: datasets have different item universes (%d vs %d)", lw1.numItems, lw2.numItems)
	}
	if m1.FS.N != lw1.n || m2.FS.N != lw2.n {
		return nil, fmt.Errorf("core: lits models of %d and %d transactions measured over windows of %d and %d", m1.FS.N, m2.FS.N, lw1.n, lw2.n)
	}
	gcr := newLitsGCR(m1.FS, m2.FS)
	c1 := minedCounts(m1.FS, gcr.sets, gcr.at1, lw1.count)
	c2 := minedCounts(m2.FS, gcr.sets, gcr.at2, lw2.count)
	return countRegions(c1, c2), nil
}

// litsBatch is the sealed summary of one batch of transactions: its rows,
// retained to be mined and counted through the window, and its mergeable
// pass-1 item-count vector.
type litsBatch struct {
	data  *txn.Dataset
	items []int
}

// litsWindow is a set of sealed batches and their summed pass-1 counts.
// It mines through its apriori.WindowMiner, which adds each batch's item
// and pair counts on Add and subtracts them on RemoveFront, or, over a
// universe whose full-universe pair table apriori.UseWindowMiner refuses,
// through apriori.MineConcat over its batches. It keeps no per-itemset
// state: MeasureGCRWindows takes the supports of the window's frequent
// itemsets from its model and counts the rest in each batch. Counts are
// integers, so everything induced from them is identical to a full
// rescan of the window. The item universe is fixed by the first batch.
type litsWindow struct {
	minSupport  float64
	numItems    int
	parallelism int
	batchList   []*litsBatch
	items       []int
	n           int
	wmine       *apriori.WindowMiner
}

func (w *litsWindow) Add(d *txn.Dataset, parallelism int) error {
	if err := d.Validate(); err != nil {
		return fmt.Errorf("core: invalid batch: %w", err)
	}
	if len(w.items) == 0 && len(w.batchList) == 0 {
		w.numItems = d.NumItems
		w.items = make([]int, d.NumItems)
	} else if d.NumItems != w.numItems {
		return fmt.Errorf("core: batch universe %d != window universe %d", d.NumItems, w.numItems)
	}
	b := &litsBatch{data: d, items: apriori.ItemCountsP(d, parallelism)}
	w.batchList = append(w.batchList, b)
	for i, v := range b.items {
		w.items[i] += v
	}
	w.n += d.Len()
	if w.wmine != nil {
		w.wmine.Push(d, parallelism)
	}
	return nil
}

func (w *litsWindow) RemoveFront() {
	b := w.batchList[0]
	w.batchList[0] = nil
	w.batchList = w.batchList[1:]
	for i, v := range b.items {
		w.items[i] -= v
	}
	w.n -= b.data.Len()
	if w.wmine != nil {
		w.wmine.Pop()
	}
}

func (w *litsWindow) Batches() int { return len(w.batchList) }

func (w *litsWindow) N() int { return w.n }

// Data assembles the window's raw transactions into one dataset (sharing
// transaction storage), for bootstrap qualification.
func (w *litsWindow) Data() *txn.Dataset {
	out := &txn.Dataset{NumItems: w.numItems}
	for _, b := range w.batchList {
		out.Txns = append(out.Txns, b.data.Txns...)
	}
	return out
}

// Clone returns a snapshot sharing the (immutable) batch summaries.
func (w *litsWindow) Clone() Window[*txn.Dataset, *LitsModel] {
	return &litsWindow{
		minSupport:  w.minSupport,
		numItems:    w.numItems,
		parallelism: w.parallelism,
		batchList:   append([]*litsBatch(nil), w.batchList...),
		items:       append([]int(nil), w.items...),
		n:           w.n,
	}
}

// Induce mines the window. Windows that actually mine — the live window,
// every emission — build an incremental apriori.WindowMiner on first use
// and keep it in sync through Add/RemoveFront; clones start without one
// (a snapshot reference is mined once, then only counted against). A
// universe whose pair table would be outsized mines the batches through
// apriori.MineConcat instead. Both paths produce bit-identical models.
func (w *litsWindow) Induce() (*LitsModel, error) {
	var fs *apriori.FrequentSet
	var err error
	if apriori.UseWindowMiner(w.numItems) {
		if w.wmine == nil {
			w.wmine = apriori.NewWindowMiner(w.numItems)
			for _, b := range w.batchList {
				w.wmine.Push(b.data, w.parallelism)
			}
		}
		fs, err = w.wmine.Mine(w.minSupport)
	} else {
		parts := make([]*txn.Dataset, len(w.batchList))
		for i, b := range w.batchList {
			parts[i] = b.data
		}
		fs, err = apriori.MineConcat(parts, w.items, w.minSupport)
	}
	if err != nil {
		return nil, err
	}
	return &LitsModel{FS: fs}, nil
}

// count returns the supports of sets over the window: the sum of their
// supports in each live batch, each counted by the engine's one decision
// (through the batch's memoized index wherever it runs vertically).
func (w *litsWindow) count(sets []apriori.Itemset) []int {
	total := make([]int, len(sets))
	for _, b := range w.batchList {
		for i, c := range apriori.CountItemsetsP(b.data, sets, w.parallelism) {
			total[i] += c
		}
	}
	return total
}
