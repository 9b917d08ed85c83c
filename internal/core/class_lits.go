package core

import (
	"fmt"
	"math/rand"

	"focus/internal/apriori"
	"focus/internal/txn"
)

// litsClass is the lits-model instantiation of ModelClass (Section 2.2):
// regions are frequent itemsets, the GCR is the itemset-set union, and the
// mergeable streaming summary is the per-batch itemset support count.
type litsClass struct {
	minSupport float64
}

// Lits returns the lits-model class instance mining frequent itemsets at
// the given minimum support. Every scan the class performs — mining, GCR
// measurement, bootstrap replicates, and the per-batch counts of streaming
// windows — runs the vertical engine wherever it fits in memory and the
// trie/levelwise path only where it does not; models, deviations and
// reports are bit-identical either way.
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
			c1 := minedCounts(&p.V1, fs1, gcr.sets, gcr.at1)
			c2 := minedCounts(&p.V2, fs2, gcr.sets, gcr.at2)
			return Deviation1(countRegions(c1, c2), float64(p.V1.N()), float64(p.V2.N()), f, g)
		}
	}, true
}

// minedCounts returns the support under v of each GCR itemset, where fs was
// mined from v and at gives each itemset's index in fs (-1 when not
// frequent there): a frequent itemset's mined count is its support, so only
// the others are counted through v.
func minedCounts(v *apriori.View, fs *apriori.FrequentSet, sets []apriori.Itemset, at []int) []int {
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
	for k, c := range v.Count(rest) {
		counts[restAt[k]] = c
	}
	return counts
}

func (c litsClass) NewWindow(parallelism int) (Window[*txn.Dataset, *LitsModel], error) {
	if c.minSupport <= 0 || c.minSupport > 1 {
		return nil, fmt.Errorf("core: minimum support %v outside (0,1]", c.minSupport)
	}
	return &litsWindow{
		minSupport:  c.minSupport,
		parallelism: parallelism,
		intern:      newInternTable(),
	}, nil
}

func (litsClass) MeasureGCRWindows(m1, m2 *LitsModel, w1, w2 Window[*txn.Dataset, *LitsModel]) ([]MeasuredRegion, error) {
	lw1, ok1 := w1.(*litsWindow)
	lw2, ok2 := w2.(*litsWindow)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("core: lits MeasureGCRWindows over foreign windows %T/%T", w1, w2)
	}
	if lw1.numItems != lw2.numItems {
		return nil, fmt.Errorf("core: datasets have different item universes (%d vs %d)", lw1.numItems, lw2.numItems)
	}
	gcr := newLitsGCR(m1.FS, m2.FS)
	return countRegions(lw1.Count(gcr.sets), lw2.Count(gcr.sets)), nil
}

// internTable assigns dense ids to itemsets, shared by every window of one
// monitor (live, snapshots, pinned reference). Interning pays one string
// lookup per itemset per Count call — alloc-free in steady state, since
// the probe key is appended into a reused buffer and only a fresh insert
// materializes the string — and the per-batch caches are then flat slices
// indexed by id, so serving a cached count costs a slice read, not a map
// access per (itemset, batch) pair. The table grows with the distinct
// candidate itemsets ever counted — bounded in practice by the stable
// candidate population of the stream.
type internTable struct {
	ids  map[string]int
	sets []apriori.Itemset // reverse table: id -> itemset
	key  []byte            // probe-key scratch
}

func newInternTable() *internTable { return &internTable{ids: make(map[string]int)} }

func (t *internTable) idOf(s apriori.Itemset) int {
	t.key = s.AppendKey(t.key[:0])
	if id, ok := t.ids[string(t.key)]; ok {
		return id
	}
	id := len(t.sets)
	t.ids[string(t.key)] = id
	t.sets = append(t.sets, s)
	return id
}

// litsBatch is the sealed summary of one batch of transactions: the raw
// transactions (retained so itemsets first seen in later windows can still
// be counted), the mergeable pass-1 item-count vector, and a cache of
// absolute support counts per interned itemset already counted in this
// batch (-1 = not yet counted). The cache is what makes window advance
// incremental — a stable candidate set never rescans a retained batch.
type litsBatch struct {
	data   *txn.Dataset
	items  []int
	counts []int // by interned id; -1 marks uncounted
}

// grow extends the cache to cover ids below n, marking new slots uncounted.
func (b *litsBatch) grow(n int) {
	if len(b.counts) >= n {
		return
	}
	grown := make([]int, n)
	copy(grown, b.counts)
	for i := len(b.counts); i < n; i++ {
		grown[i] = -1
	}
	b.counts = grown
}

// litsWindow is a set of batches exposed to Apriori as a count source:
// pass-1 item counts are maintained incrementally (add on ingest, subtract
// on expiry), and so are full candidate counts — an itemset counted once
// across every live batch becomes "warm": its window total lives in agg,
// Add merges only the new batch's delta in, RemoveFront subtracts the
// expired batch's cached count out, and Count serves it as a slice read
// without touching the batches at all. Cold itemsets fall back to per-
// batch sums served from the batch caches, scanning a batch only for
// itemsets it has not counted before. Counts are integers, so the sums —
// and everything induced from them — are identical to a full rescan of the
// window. The item universe is fixed by the first batch added anywhere in
// the window's clone family.
type litsWindow struct {
	minSupport  float64
	numItems    int
	parallelism int
	intern      *internTable
	batchList   []*litsBatch
	items       []int
	n           int
	agg         []int  // by id: window-total counts of warm itemsets
	aggOK       []bool // by id: agg holds the total over every live batch
	idBuf       []int  // per-Count interned-id scratch
	wmine       *apriori.WindowMiner
}

// growAgg extends the aggregate to cover ids below n.
func (w *litsWindow) growAgg(n int) {
	for len(w.agg) < n {
		w.agg = append(w.agg, 0)
		w.aggOK = append(w.aggOK, false)
	}
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
	// Delta-merge: count the warm itemsets in the new batch alone and fold
	// them into the aggregate, preserving the invariant that a warm itemset
	// is cached in every live batch (RemoveFront subtracts from the cache).
	var warm []apriori.Itemset
	var warmIDs []int
	for id, ok := range w.aggOK {
		if ok {
			warm = append(warm, w.intern.sets[id])
			warmIDs = append(warmIDs, id)
		}
	}
	if len(warm) > 0 {
		b.grow(len(w.intern.sets))
		counts := apriori.CountItemsetsP(d, warm, parallelism)
		for j, c := range counts {
			b.counts[warmIDs[j]] = c
			w.agg[warmIDs[j]] += c
		}
	}
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
	for id, ok := range w.aggOK {
		if ok {
			w.agg[id] -= b.counts[id]
		}
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

// Clone returns a snapshot sharing the (immutable) batch summaries and the
// intern table, so counts cached through either window stay valid for
// both.
func (w *litsWindow) Clone() Window[*txn.Dataset, *LitsModel] {
	return &litsWindow{
		minSupport:  w.minSupport,
		numItems:    w.numItems,
		parallelism: w.parallelism,
		intern:      w.intern,
		batchList:   append([]*litsBatch(nil), w.batchList...),
		items:       append([]int(nil), w.items...),
		n:           w.n,
		agg:         append([]int(nil), w.agg...),
		aggOK:       append([]bool(nil), w.aggOK...),
	}
}

// Induce mines the window. Windows that actually mine — the live window,
// every emission — build an incremental apriori.WindowMiner on first use
// and keep it in sync through Add/RemoveFront; clones start without one
// (snapshot references are counted against, not re-mined), and a universe
// whose pair table would be outsized falls back to levelwise mining
// through the window's count source. Both paths produce bit-identical
// models.
func (w *litsWindow) Induce() (*LitsModel, error) {
	if w.wmine == nil && len(w.batchList) > 0 && apriori.UseWindowMiner(w.numItems) {
		wm := apriori.NewWindowMiner(w.numItems)
		for _, b := range w.batchList {
			wm.Push(b.data, w.parallelism)
		}
		w.wmine = wm
	}
	if w.wmine != nil {
		fs, err := w.wmine.Mine(w.minSupport)
		if err != nil {
			return nil, err
		}
		return &LitsModel{FS: fs}, nil
	}
	fs, err := apriori.MineFrom(w, w.minSupport)
	if err != nil {
		return nil, err
	}
	return &LitsModel{FS: fs}, nil
}

// litsWindow implements apriori.Source.

func (w *litsWindow) NumTxns() int      { return w.n }
func (w *litsWindow) NumItems() int     { return w.numItems }
func (w *litsWindow) ItemCounts() []int { return w.items }

func (w *litsWindow) Count(sets []apriori.Itemset) []int {
	total := make([]int, len(sets))
	if len(sets) == 0 {
		return total
	}
	if cap(w.idBuf) < len(sets) {
		w.idBuf = make([]int, len(sets))
	}
	ids := w.idBuf[:len(sets)]
	for i, s := range sets {
		ids[i] = w.intern.idOf(s)
	}
	w.growAgg(len(w.intern.sets))
	var coldIdx []int
	for i, id := range ids {
		if w.aggOK[id] {
			total[i] = w.agg[id]
		} else {
			coldIdx = append(coldIdx, i)
		}
	}
	for _, b := range w.batchList {
		if len(coldIdx) == 0 {
			break
		}
		b.grow(len(w.intern.sets))
		var missing []apriori.Itemset
		var missingIdx []int
		for _, i := range coldIdx {
			if c := b.counts[ids[i]]; c >= 0 {
				total[i] += c
			} else {
				missing = append(missing, sets[i])
				missingIdx = append(missingIdx, i)
			}
		}
		if len(missing) > 0 {
			// The batch datasets are sealed, so a memoized per-batch
			// vertical index persists across window advances.
			counts := apriori.CountItemsetsP(b.data, missing, w.parallelism)
			for j, c := range counts {
				i := missingIdx[j]
				b.counts[ids[i]] = c
				total[i] += c
			}
		}
	}
	// Every cold itemset is now cached in every live batch: warm it, so the
	// next Count is a slice read and window advance only merges deltas.
	for _, i := range coldIdx {
		w.agg[ids[i]] = total[i]
		w.aggOK[ids[i]] = true
	}
	return total
}
