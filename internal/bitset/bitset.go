// Package bitset provides the fixed-size uint64-word bitsets behind the
// vertical (TID-bitmap) execution engine of internal/apriori: one bitset
// per item records which transactions contain the item, the support of an
// itemset is the popcount of the AND of its items' bitsets, and the
// Eclat-style miner walks prefix extensions through AND (tidsets) and
// ANDNOT (diffsets) of those bitsets.
//
// The hot operations are therefore intersect-and-count and its diffset
// twin. AndCount/AndNotCount fuse the word operation with the popcount so
// a final set never materializes; AndInto/AndNotInto materialize partial
// results into caller-owned scratch. A Pool recycles equal-length scratch
// sets so steady-state mining and counting allocate nothing.
package bitset

import "math/bits"

// wordBits is the number of bits per word.
const wordBits = 64

// Set is a fixed-capacity bitset over [0, n) stored as uint64 words. All
// binary operations require operands of equal word length (the length New
// fixes from n); sets over the same domain always satisfy this.
type Set []uint64

// Words returns the number of uint64 words a set over [0, n) occupies.
func Words(n int) int {
	return (n + wordBits - 1) / wordBits
}

// New returns an empty set with capacity for bits [0, n).
func New(n int) Set {
	return make(Set, Words(n))
}

// Set sets bit i. The caller must ensure 0 <= i < capacity.
func (s Set) Set(i int) {
	s[i/wordBits] |= 1 << (i % wordBits)
}

// Test reports whether bit i is set. The caller must ensure i >= 0; indexes
// at or beyond the capacity read as unset.
func (s Set) Test(i int) bool {
	w := i / wordBits
	return w < len(s) && s[w]&(1<<(i%wordBits)) != 0
}

// Count returns the number of set bits.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// AndInto stores a AND b into dst and returns dst. dst may alias a or b;
// all three must have equal length.
func AndInto(dst, a, b Set) Set {
	for i := range dst {
		dst[i] = a[i] & b[i]
	}
	return dst
}

// AndCount returns the popcount of a AND b without materializing the
// intersection — the fused kernel of vertical support counting. a and b
// must have equal length.
func AndCount(a, b Set) int {
	n := 0
	for i, w := range a {
		n += bits.OnesCount64(w & b[i])
	}
	return n
}

// And intersects s with b in place (s &= b); the in-place form of AndInto
// for accumulator-style callers. Both sets must have equal length.
func (s Set) And(b Set) {
	for i := range s {
		s[i] &= b[i]
	}
}

// AndNot clears b's bits from s in place (s &^= b). Both sets must have
// equal length.
func (s Set) AndNot(b Set) {
	for i := range s {
		s[i] &^= b[i]
	}
}

// AndNotInto stores a AND NOT b into dst and returns dst — the diffset
// construction of the vertical miner: the tids of a prefix that do NOT
// survive an extension. dst may alias a or b; all three must have equal
// length.
func AndNotInto(dst, a, b Set) Set {
	for i := range dst {
		dst[i] = a[i] &^ b[i]
	}
	return dst
}

// AndNotCount returns the popcount of a AND NOT b without materializing
// the difference — the fused diffset cardinality, from which the vertical
// miner derives support(P∪{x}) = support(P) − |t(P) \ t(x)|. a and b must
// have equal length.
func AndNotCount(a, b Set) int {
	n := 0
	for i, w := range a {
		n += bits.OnesCount64(w &^ b[i])
	}
	return n
}

// OrShiftInto ORs src's bits into dst starting at bit offset off:
// dst[off+i] |= src[i]. Used to concatenate per-batch tid-bitmaps into one
// window bitmap without revisiting transactions. dst must have room for
// off + 64*len(src) bits' worth of words beyond any set bits of src; bits
// of src beyond its logical length must be zero (bitset.New's contract).
func OrShiftInto(dst, src Set, off int) {
	wordOff, shift := off/wordBits, uint(off%wordBits)
	if shift == 0 {
		for i, w := range src {
			dst[wordOff+i] |= w
		}
		return
	}
	for i, w := range src {
		if w == 0 {
			continue
		}
		dst[wordOff+i] |= w << shift
		if hi := w >> (wordBits - shift); hi != 0 {
			dst[wordOff+i+1] |= hi
		}
	}
}

// Pool is a free-list of equal-length scratch sets for intersection chains
// and miner nodes: Get pops a recycled set (or allocates the first time),
// Put returns one. Steady-state use allocates nothing. Returned sets hold
// stale bits — callers are expected to overwrite via AndInto/AndNotInto.
// A Pool is not safe for concurrent use; give each worker its own.
type Pool struct {
	words int
	free  []Set
}

// NewPool returns a pool of scratch sets with capacity for bits [0, n).
func NewPool(n int) *Pool {
	return &Pool{words: Words(n)}
}

// Get returns a scratch set of the pool's length with unspecified contents.
func (p *Pool) Get() Set {
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	return make(Set, p.words)
}

// Put returns a set obtained from Get to the pool.
func (p *Pool) Put(s Set) {
	p.free = append(p.free, s)
}
