package apriori

import (
	"focus/internal/bitset"
	"focus/internal/txn"
)

// This file is the vertical execution engine's decision layer. The public
// knob stays Counter ("auto", "trie", "bitmap"); the engine extends it from
// counting to mining: a Miner is the mining-strategy twin of Counter, and
// an Engine binds one dataset to both resolved decisions so mining, GCR
// candidate counting, and streaming window batch counts all dispatch
// through one place (Engine.Mine / Engine.Count) instead of each call site
// re-deriving a backend. Every strategy returns bit-identical integer
// counts, so the knob remains purely a performance choice.

// Miner selects the frequent-itemset mining strategy.
type Miner string

const (
	// MinerAuto picks levelwise or vertical per mine from the dataset
	// density and the frequent-item volume.
	MinerAuto Miner = "auto"
	// MinerLevelwise is classic Apriori: generate candidates level by
	// level and count them against the transactions.
	MinerLevelwise Miner = "levelwise"
	// MinerVertical is Eclat-style DFS over the TID-bitmap index:
	// tidset intersections at shallow levels, diffsets at deep levels.
	MinerVertical Miner = "vertical"
)

// resolveMiner maps the Counter knob onto a mining strategy for a dataset
// with freqItems frequent items: an explicit trie/bitmap counter forces the
// matching miner, auto mirrors resolveCounter's density × volume reasoning
// with the frequent-item count as the volume proxy (every frequent-item
// pair is a level-2 intersection). The vertical miner then handles the
// depth dimension itself, switching tidsets to diffsets per level.
func resolveMiner(c Counter, d *txn.Dataset, freqItems int) Miner {
	MustCounter(c)
	switch c {
	case CounterTrie:
		return MinerLevelwise
	case CounterBitmap:
		return MinerVertical
	}
	// A memoized index makes the vertical miner nearly free to start.
	if d.HasMemo() {
		return MinerVertical
	}
	// Unlike per-scan counting, mining amortizes the index build over the
	// whole DFS, so even small datasets (one-word tidsets) mine vertically;
	// only a near-empty frequent-item set leaves nothing to amortize.
	if freqItems < 8 {
		return MinerLevelwise
	}
	if d.NumItems > 0 && int64(d.NumItems)*int64(bitset.Words(d.Len()))*8 > autoIndexBytes {
		return MinerLevelwise
	}
	density := d.AvgLen() / float64(d.NumItems)
	if density*float64(freqItems) < 0.5 {
		return MinerLevelwise
	}
	return MinerVertical
}

// Engine binds a dataset to the vertical execution engine's knobs. It is
// the single dispatch point of the lits execution path: Mine resolves the
// mining strategy, Count resolves the counting backend, and the pass-1
// vector is computed once and shared between them (and with the index
// build). An Engine implements Source, so levelwise mining and streaming
// windows consume it directly. An Engine is not safe for concurrent use;
// the (memoized) vertical index it may build is.
type Engine struct {
	d           *txn.Dataset
	parallelism int
	counter     Counter
	pass1       []int
}

// NewEngine returns an engine over d with explicit parallelism and backend
// knobs. Unknown counters panic at the construction site.
func NewEngine(d *txn.Dataset, parallelism int, counter Counter) *Engine {
	MustCounter(counter)
	return &Engine{d: d, parallelism: parallelism, counter: counter}
}

// NumTxns returns |D|.
func (e *Engine) NumTxns() int { return e.d.Len() }

// NumItems returns the size of the item universe.
func (e *Engine) NumItems() int { return e.d.NumItems }

// ItemCounts returns the absolute per-item support counts (Apriori's first
// pass), computed once and cached so a later index build reuses it.
func (e *Engine) ItemCounts() []int {
	if e.pass1 != nil {
		return e.pass1
	}
	// An explicit bitmap backend serves pass 1 from the vertical index,
	// which primes the memoized index the candidate passes will reuse; an
	// already-memoized index serves pass 1 for free on any backend that
	// would build (or has built) it anyway.
	if e.counter == CounterBitmap || (e.counter != CounterTrie && e.d.HasMemo()) {
		e.pass1 = VerticalIndexOf(e.d, e.parallelism).ItemCounts()
	} else {
		e.pass1 = horizontalItemCounts(e.d, e.parallelism)
	}
	return e.pass1
}

// Count returns the support counts of sets, dispatching to the trie scan
// or the (memoized) vertical index per the resolved counter. Counts are
// bit-identical across backends.
func (e *Engine) Count(sets []Itemset) []int {
	if len(sets) == 0 || e.d.Len() == 0 {
		return make([]int, len(sets))
	}
	if resolveCounter(e.counter, e.d, len(sets)) == CounterBitmap {
		return verticalIndexWith(e.d, e.parallelism, e.pass1).Count(sets, e.parallelism)
	}
	return CountItemsetsTrie(e.d, sets, e.parallelism)
}

// Mine mines the frequent itemsets of the engine's dataset at minSupport,
// dispatching to the levelwise or vertical miner per the resolved Miner.
// Both miners produce bit-identical frequent sets: identical itemsets in
// identical (lexicographic) order with identical counts.
func (e *Engine) Mine(minSupport float64) (*FrequentSet, error) {
	if minSupport <= 0 || minSupport > 1 {
		return nil, minSupportError(minSupport)
	}
	if e.d.Len() == 0 {
		return &FrequentSet{MinSupport: minSupport, N: 0}, nil
	}
	minCount := minCountFor(minSupport, e.d.Len())
	freq := 0
	for _, c := range e.ItemCounts() {
		if c >= minCount {
			freq++
		}
	}
	if resolveMiner(e.counter, e.d, freq) == MinerVertical {
		ix := verticalIndexWith(e.d, e.parallelism, e.pass1)
		return mineVertical(e.d, ix, ix.itemCounts, ix.n, minSupport, e.parallelism)
	}
	return MineFrom(e, minSupport)
}
