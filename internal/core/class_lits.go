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
// replicates mine exploded view pairs, and a live window mines through its
// WindowMiner (a snapshot, or a window over a wide universe, through the
// view's fill kernel). The GCR
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

func (c litsClass) NewWindow(parallelism int) (*Window[*txn.Dataset, *LitsModel], error) {
	if c.minSupport <= 0 || c.minSupport > 1 {
		return nil, fmt.Errorf("core: minimum support %v outside (0,1]", c.minSupport)
	}
	w := NewWindow(c, parallelism, litsSummary, c.induceWindow)
	w.tracker = new(litsMiner)
	return w, nil
}

// litsSummary seals a batch of transactions into its pass-1 item-count
// vector; the window's item universe is that vector's length, fixed by its
// first batch.
func litsSummary(d *txn.Dataset, parallelism int) ([]int, error) {
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid batch: %w", err)
	}
	return apriori.ItemCountsP(d, parallelism), nil
}

// induceWindow mines a window from its batches and summed pass-1 counts:
// through the live window's apriori.WindowMiner, which holds the
// batches' pair counts, or, for a snapshot or over a universe whose pair
// table apriori.UseWindowMiner refuses, through apriori.MineConcat. Both
// paths produce bit-identical models.
func (c litsClass) induceWindow(w *Window[*txn.Dataset, *LitsModel]) (*LitsModel, error) {
	mine := apriori.MineConcat
	if m, _ := w.tracker.(*litsMiner); m != nil && m.wm != nil {
		mine = m.wm.Mine
	}
	fs, err := mine(w.batches, w.sum, c.minSupport)
	if err != nil {
		return nil, err
	}
	return &LitsModel{FS: fs}, nil
}

// litsMiner is a live lits window's class-owned state: the
// apriori.WindowMiner its batches enter and leave, built by the first
// batch over a universe apriori.UseWindowMiner takes. It keeps only the
// pair counts; the window holds the batches and their pass-1 counts.
type litsMiner struct {
	wm *apriori.WindowMiner
}

func (m *litsMiner) push(d *txn.Dataset, parallelism int) {
	if m.wm == nil && apriori.UseWindowMiner(d.NumItems) {
		m.wm = apriori.NewWindowMiner(d.NumItems)
	}
	if m.wm != nil {
		m.wm.Push(d, parallelism)
	}
}

func (m *litsMiner) pop(d *txn.Dataset) {
	if m.wm != nil {
		m.wm.Pop(d)
	}
}

// MeasureGCRWindows takes the support of each GCR itemset frequent in a
// window from that window's model and counts only the itemsets frequent
// in the other window alone, batch by batch (through each batch's
// memoized index wherever it runs vertically).
func (litsClass) MeasureGCRWindows(m1, m2 *LitsModel, w1, w2 *Window[*txn.Dataset, *LitsModel]) ([]MeasuredRegion, error) {
	if len(w1.sum) != len(w2.sum) {
		return nil, fmt.Errorf("core: datasets have different item universes (%d vs %d)", len(w1.sum), len(w2.sum))
	}
	if m1.FS.N != w1.n || m2.FS.N != w2.n {
		return nil, fmt.Errorf("core: lits models of %d and %d transactions measured over windows of %d and %d", m1.FS.N, m2.FS.N, w1.n, w2.n)
	}
	count := func(w *Window[*txn.Dataset, *LitsModel]) func([]apriori.Itemset) []int {
		return func(sets []apriori.Itemset) []int {
			total := make([]int, len(sets))
			for _, d := range w.batches {
				for i, c := range apriori.CountItemsetsP(d, sets, w.parallelism) {
					total[i] += c
				}
			}
			return total
		}
	}
	gcr := newLitsGCR(m1.FS, m2.FS)
	c1 := minedCounts(m1.FS, gcr.sets, gcr.at1, count(w1))
	c2 := minedCounts(m2.FS, gcr.sets, gcr.at2, count(w2))
	return countRegions(c1, c2), nil
}
