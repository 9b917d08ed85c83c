package apriori

import (
	"fmt"

	"focus/internal/bitset"
	"focus/internal/parallel"
	"focus/internal/txn"
)

// This file implements the vertical (TID-bitmap) counting backend: instead
// of walking every transaction through the candidate trie, each item is
// mapped once to the bitset of transactions containing it, and the support
// of an itemset is the popcount of the AND of its items' bitsets. The two
// backends are exact alternatives — bit-identical integer counts — so the
// engine picks between them by memory alone (useVertical); the
// differential harness in count_diff_test.go pins the equivalence down.

// Counter is the package's backend-forcing seam. No user selects it: the
// lits engine always runs the default, which is one decision (useVertical).
// The differential harnesses (count_diff_test.go, mine_diff_test.go, the
// fuzzers, and the trie-forced reference class of internal/core's tests)
// force each side through it, and perfbench compiles against
// CounterDefault, MineWith and CountItemsetsC.
type Counter string

const (
	// CounterDefault is the unset seam; it means CounterAuto.
	CounterDefault Counter = ""
	// CounterAuto runs the vertical engine wherever it fits in memory
	// (useVertical).
	CounterAuto Counter = "auto"
	// CounterTrie forces the prefix-trie subset scan over transactions.
	CounterTrie Counter = "trie"
	// CounterBitmap forces the vertical TID-bitmap backend.
	CounterBitmap Counter = "bitmap"
)

// ParseCounter validates a counter name ("auto", "trie" or "bitmap"; ""
// means auto).
func ParseCounter(name string) (Counter, error) {
	switch c := Counter(name); c {
	case CounterDefault, CounterAuto, CounterTrie, CounterBitmap:
		return c, nil
	default:
		return CounterDefault, fmt.Errorf("apriori: unknown counter %q (want auto, trie or bitmap)", name)
	}
}

// MustCounter panics on a Counter value outside the known vocabulary —
// the guard for the seam set directly (engine and count entry points)
// rather than through ParseCounter. Failing at the call site beats
// silently running a backend the caller did not choose.
func MustCounter(c Counter) {
	if _, err := ParseCounter(string(c)); err != nil {
		panic(err.Error())
	}
}

// autoIndexBytes caps the estimated vertical-index footprint (bytes) up to
// which the default engine runs vertically; an explicit CounterBitmap is
// never capped.
const autoIndexBytes = 1 << 28

// occurrenceSlack ties the universe-sized part of the index to the data it
// indexes: the default engine runs vertically only while the universe
// holds at most occurrenceSlack item ids per item occurrence of the data
// (NumItems <= occurrenceSlack·Σ|t|).
const occurrenceSlack = 4

// useVertical is the lits engine's one decision, shared by counting, pass
// 1 and mining: a forced backend wins; otherwise the vertical engine runs
// wherever d's index is memoized (nothing left to build) or would fit in
// memory, and the trie/levelwise path runs only where it would not. The
// index holds a bitset.Set header (24 bytes) and a pass-1 count (8 bytes)
// for every item of the universe, and at most a Words(|D|)-word bitset for
// each; the universe can hold up to 2^31 item ids, so its footprint is not
// bounded by the data size. It fits when both
//   - NumItems × (24 + 8·Words(|D|)) bytes is at most autoIndexBytes, and
//   - NumItems <= occurrenceSlack·Σ|t|, so the 32 bytes per universe item
//     stay within 128 bytes per item occurrence: a few rows over a wide
//     universe, which would pay almost only headers, stay on the trie,
//     whose footprint is the rows and the pass-1 vector every path holds.
func useVertical(c Counter, d *txn.Dataset) bool {
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
	if int64(d.NumItems)*(24+int64(bitset.Words(d.Len()))*8) > autoIndexBytes {
		return false
	}
	occ := 0
	for _, t := range d.Txns {
		if occ += occurrenceSlack * len(t); occ >= d.NumItems {
			return true
		}
	}
	return false
}

// VerticalIndex is the vertical form of a transaction dataset: for each
// item, the bitset of transaction indexes containing it (nil for items
// occurring in no transaction, so the footprint scales with the items
// actually present). Build one with BuildVerticalIndex, or let
// VerticalIndexOf memoize one on the dataset. A built index is immutable
// and safe for concurrent use.
type VerticalIndex struct {
	n          int
	items      []bitset.Set
	itemCounts []int
}

// BuildVerticalIndex builds the vertical index of d, sharding the
// transaction scan across Workers(parallelism) workers on bitset-word
// boundaries so shards never share a word.
func BuildVerticalIndex(d *txn.Dataset, parallelism int) *VerticalIndex {
	return buildVerticalIndex(d, parallelism, nil)
}

// buildVerticalIndex is BuildVerticalIndex with an optional precomputed
// pass-1 vector (nil = compute it here), so a Source that already scanned
// the items does not pay the scan twice. The caller must not mutate a
// supplied vector afterwards.
func buildVerticalIndex(d *txn.Dataset, parallelism int, itemCounts []int) *VerticalIndex {
	if itemCounts == nil {
		// Pass 1: per-item occurrence counts, so only present items
		// allocate a bitset.
		itemCounts = horizontalItemCounts(d, parallelism)
	}
	ix := &VerticalIndex{
		n:          d.Len(),
		items:      make([]bitset.Set, d.NumItems),
		itemCounts: itemCounts,
	}
	for it, c := range ix.itemCounts {
		if c > 0 {
			ix.items[it] = bitset.New(ix.n)
		}
	}
	// Pass 2: set each transaction's bit in its items' bitsets. Chunks are
	// aligned to 64-transaction boundaries, so two shards never write the
	// same bitset word.
	chunks := parallel.ChunksAligned(len(d.Txns), parallel.Workers(parallelism), 64)
	if len(chunks) == 1 {
		ix.fill(d, chunks[0])
		return ix
	}
	parallel.Do(len(chunks), len(chunks), func(shard int, _ parallel.Chunk) {
		ix.fill(d, chunks[shard])
	})
	return ix
}

func (ix *VerticalIndex) fill(d *txn.Dataset, c parallel.Chunk) {
	for i := c.Lo; i < c.Hi; i++ {
		for _, it := range d.Txns[i] {
			ix.items[it].Set(i)
		}
	}
}

// VerticalIndexOf returns d's vertical index, building and memoizing it on
// the dataset on first use so repeated scans — streaming window re-counts,
// per-batch window mining — amortize construction. The dataset
// must not be mutated afterwards (see txn.Dataset.Memo, whose single slot
// this package owns).
func VerticalIndexOf(d *txn.Dataset, parallelism int) *VerticalIndex {
	return verticalIndexWith(d, parallelism, nil)
}

// verticalIndexWith is VerticalIndexOf with an optional precomputed pass-1
// vector forwarded to the build (only consulted when the index is not
// memoized yet).
func verticalIndexWith(d *txn.Dataset, parallelism int, itemCounts []int) *VerticalIndex {
	memo := d.Memo(func() any { return buildVerticalIndex(d, parallelism, itemCounts) })
	ix, ok := memo.(*VerticalIndex)
	if !ok {
		panic(fmt.Sprintf("apriori: dataset memo slot holds a foreign %T (the slot is reserved for the vertical index)", memo))
	}
	return ix
}

// NumTxns returns the number of transactions indexed.
func (ix *VerticalIndex) NumTxns() int { return ix.n }

// ItemCounts returns the absolute per-item support counts (a fresh slice).
func (ix *VerticalIndex) ItemCounts() []int {
	out := make([]int, len(ix.itemCounts))
	copy(out, ix.itemCounts)
	return out
}

// Count returns, for each itemset in sets, the absolute number of indexed
// transactions containing it, by intersecting the items' bitsets with a
// popcount-fused final AND, sharding the itemsets across
// Workers(parallelism) workers (each with one private scratch set). Counts
// are bit-identical to the trie scan: both count exactly the transactions
// containing every item.
func (ix *VerticalIndex) Count(sets []Itemset, parallelism int) []int {
	counts := make([]int, len(sets))
	if len(sets) == 0 {
		return counts
	}
	parallel.Do(len(sets), parallelism, func(_ int, c parallel.Chunk) {
		var scratch bitset.Set
		for i := c.Lo; i < c.Hi; i++ {
			counts[i] = ix.countOne(sets[i], &scratch)
		}
	})
	return counts
}

// countOne counts a single sorted itemset; *scratch is lazily allocated
// worker-private intersection storage.
func (ix *VerticalIndex) countOne(s Itemset, scratch *bitset.Set) int {
	for _, it := range s {
		if int(it) < 0 || int(it) >= len(ix.items) || ix.items[it] == nil {
			return 0 // item outside the universe or in no transaction
		}
	}
	switch len(s) {
	case 0:
		return ix.n // the empty itemset covers every transaction
	case 1:
		return ix.itemCounts[s[0]]
	case 2:
		return bitset.AndCount(ix.items[s[0]], ix.items[s[1]])
	}
	if *scratch == nil {
		*scratch = bitset.New(ix.n)
	}
	acc := bitset.AndInto(*scratch, ix.items[s[0]], ix.items[s[1]])
	for _, it := range s[2 : len(s)-1] {
		acc = bitset.AndInto(acc, acc, ix.items[it])
	}
	return bitset.AndCount(acc, ix.items[s[len(s)-1]])
}
