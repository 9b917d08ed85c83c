package apriori

import "focus/internal/txn"

// This file is the vertical execution engine's dispatch layer. The engine
// makes one decision per dataset (useVertical): the vertical engine —
// bitmap counting and Eclat-style mining — wherever its index fits in
// memory, the trie scan and levelwise Apriori only where it does not. An
// Engine binds one dataset to that decision so mining, pass 1 and
// candidate counting dispatch through one place (Engine.Mine,
// Engine.ItemCounts, Engine.Count) instead of each call re-deriving a
// backend. Both paths return bit-identical integer counts, so the
// decision is purely a performance (and memory) choice.

// Engine binds a dataset to the vertical execution engine. It is the
// single dispatch point of the lits execution path: Mine and Count both
// follow useVertical, and the pass-1 vector is computed once and shared
// between them (and with the index build); the levelwise miner, the
// trie side, reads both through the engine. An Engine is not safe for
// concurrent use; the (memoized) vertical index it may build is.
type Engine struct {
	d           *txn.Dataset
	parallelism int
	counter     Counter
	pass1       []int
}

// NewEngine returns an engine over d with an explicit parallelism and the
// backend-forcing seam. Unknown counters panic at the construction site.
func NewEngine(d *txn.Dataset, parallelism int, counter Counter) *Engine {
	MustCounter(counter)
	return &Engine{d: d, parallelism: parallelism, counter: counter}
}

// ItemCounts returns the absolute per-item support counts (Apriori's first
// pass), computed once and cached, from the vertical index per useVertical
// and by a horizontal scan otherwise.
func (e *Engine) ItemCounts() []int {
	if e.pass1 != nil {
		return e.pass1
	}
	// Where the engine runs vertically, pass 1 comes from the (memoized)
	// index the candidate passes reuse, so the items are scanned once.
	if useVertical(e.counter, e.d) {
		e.pass1 = VerticalIndexOf(e.d, e.parallelism).ItemCounts()
	} else {
		e.pass1 = horizontalItemCounts(e.d, e.parallelism)
	}
	return e.pass1
}

// Count returns the support counts of sets, dispatching to the (memoized)
// vertical index or the trie scan per useVertical. Counts are
// bit-identical across backends.
func (e *Engine) Count(sets []Itemset) []int {
	if len(sets) == 0 || e.d.Len() == 0 {
		return make([]int, len(sets))
	}
	if useVertical(e.counter, e.d) {
		return verticalIndexWith(e.d, e.parallelism, e.pass1).Count(sets, e.parallelism)
	}
	return CountItemsetsTrie(e.d, sets, e.parallelism)
}

// Mine mines the frequent itemsets of the engine's dataset at minSupport,
// dispatching to the vertical or the levelwise miner per useVertical.
// Both miners produce bit-identical frequent sets: identical itemsets in
// identical (lexicographic) order with identical counts.
func (e *Engine) Mine(minSupport float64) (*FrequentSet, error) {
	if minSupport <= 0 || minSupport > 1 {
		return nil, minSupportError(minSupport)
	}
	if e.d.Len() == 0 {
		return &FrequentSet{MinSupport: minSupport, N: 0}, nil
	}
	if useVertical(e.counter, e.d) {
		ix := verticalIndexWith(e.d, e.parallelism, e.pass1)
		return mineVertical(e.d, ix, ix.itemCounts, ix.n, minSupport, e.parallelism)
	}
	return e.mineLevelwise(minSupport), nil
}
