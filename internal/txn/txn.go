// Package txn provides the market-basket (transaction) dataset substrate for
// lits-models: transactions over an item universe, sampling, and IO.
//
// In FOCUS terms (Section 2.2), a transaction dataset is a dataset over
// boolean attributes, one per item; a frequent itemset X identifies the
// region of the attribute space where every item of X is present, and the
// region's measure is the support of X.
package txn

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"sync"

	"focus/internal/parallel"
)

// Item identifies one item of the universe I; items are dense integers in
// [0, NumItems).
type Item = int32

// maxUniverse is the largest item universe: item ids are int32 values in
// [0, NumItems), so a larger universe would wrap ids past 1<<31-1.
const maxUniverse = 1 << 31

// CheckUniverse rejects a universe size that is negative or holds more
// items than there are Item ids. Check a size read from input before
// anything is allocated by it.
func CheckUniverse(numItems int) error {
	if numItems < 0 {
		return fmt.Errorf("txn: negative universe size %d", numItems)
	}
	if int64(numItems) > maxUniverse {
		return fmt.Errorf("txn: universe size %d exceeds %d, the number of item ids", numItems, int64(maxUniverse))
	}
	return nil
}

// Transaction is a set of items, stored sorted ascending without duplicates.
type Transaction []Item

// Contains reports whether the transaction contains item x, by binary search.
func (t Transaction) Contains(x Item) bool {
	i := sort.Search(len(t), func(i int) bool { return t[i] >= x })
	return i < len(t) && t[i] == x
}

// ContainsAll reports whether the transaction contains every item of the
// sorted itemset s.
func (t Transaction) ContainsAll(s []Item) bool {
	j := 0
	for _, want := range s {
		for j < len(t) && t[j] < want {
			j++
		}
		if j == len(t) || t[j] != want {
			return false
		}
		j++
	}
	return true
}

// Normalize sorts the transaction and removes duplicate items, returning the
// (possibly shortened) transaction.
func (t Transaction) Normalize() Transaction {
	slices.Sort(t)
	out := t[:0]
	for i, x := range t {
		if i == 0 || x != t[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// Clone returns a copy of the transaction.
func (t Transaction) Clone() Transaction {
	c := make(Transaction, len(t))
	copy(c, t)
	return c
}

// Dataset is a finite multiset of transactions over a fixed item universe.
// Datasets are handled by pointer throughout (the memo slot below makes the
// struct non-copyable under vet's copylocks check).
type Dataset struct {
	NumItems int
	Txns     []Transaction

	// memo lazily caches one derived structure of the finished dataset
	// (the vertical counting index of internal/apriori); see Memo.
	memoMu sync.Mutex
	memo   any // guarded by memoMu
}

// New creates an empty transaction dataset over numItems items.
func New(numItems int) *Dataset {
	return &Dataset{NumItems: numItems}
}

// Len returns |D|, the number of transactions.
func (d *Dataset) Len() int { return len(d.Txns) }

// Add appends transactions (assumed normalized) to the dataset and drops
// any memoized derived structure, which the append invalidates. The append
// and the invalidation happen under the memo lock, so a Memo build can
// never interleave with an Add and cache a stale structure.
func (d *Dataset) Add(ts ...Transaction) {
	d.memoMu.Lock()
	defer d.memoMu.Unlock()
	d.Txns = append(d.Txns, ts...)
	d.memo = nil
}

// Memo returns the dataset's memoized derived structure, calling build to
// create it on the first use. It exists so a package that derives an index
// from a dataset (internal/apriori's vertical counting index) can amortize
// construction across repeated scans — bootstrap draws, window re-counts —
// without this package importing it. The slot is single-occupancy and
// currently owned by apriori's vertical index: a second derived structure
// needs its own slot, not a second caller of this one. Memo is safe for
// concurrent use with other Memo and Add calls (build runs under the memo
// lock, at most once per invalidation), but callers must not mutate Txns
// directly once a memo exists: Add invalidates the memo, raw appends
// cannot.
func (d *Dataset) Memo(build func() any) any {
	d.memoMu.Lock()
	defer d.memoMu.Unlock()
	if d.memo == nil {
		d.memo = build()
	}
	return d.memo
}

// HasMemo reports whether a memoized derived structure currently exists —
// a cheap probe for heuristics that would choose differently when the
// structure is already paid for (see apriori's engine decision).
func (d *Dataset) HasMemo() bool {
	d.memoMu.Lock()
	defer d.memoMu.Unlock()
	return d.memo != nil
}

// AvgLen returns the average transaction length.
func (d *Dataset) AvgLen() float64 {
	if len(d.Txns) == 0 {
		return 0
	}
	total := 0
	for _, t := range d.Txns {
		total += len(t)
	}
	return float64(total) / float64(len(d.Txns))
}

// Validate checks that every transaction is sorted, duplicate-free, and
// within the item universe.
func (d *Dataset) Validate() error {
	for i, t := range d.Txns {
		for j, x := range t {
			if x < 0 || int(x) >= d.NumItems {
				return fmt.Errorf("txn: transaction %d item %d outside universe [0,%d)", i, x, d.NumItems)
			}
			if j > 0 && t[j-1] >= x {
				return fmt.Errorf("txn: transaction %d not sorted/unique at position %d", i, j)
			}
		}
	}
	return nil
}

// Concat returns a new dataset holding d's transactions followed by o's; both
// must share the same item universe. This is the D + Δ construction of
// Section 7.1.
func (d *Dataset) Concat(o *Dataset) (*Dataset, error) {
	if d.NumItems != o.NumItems {
		return nil, errors.New("txn: cannot concat datasets over different item universes")
	}
	out := &Dataset{NumItems: d.NumItems, Txns: make([]Transaction, 0, len(d.Txns)+len(o.Txns))}
	out.Txns = append(out.Txns, d.Txns...)
	out.Txns = append(out.Txns, o.Txns...)
	return out, nil
}

// Chunks splits the dataset into at most n contiguous sub-datasets sharing
// transaction storage with d — the inverse of Concat, used to shard scans
// across workers. Concatenating the chunks in order reproduces d.
func (d *Dataset) Chunks(n int) []*Dataset {
	chunks := parallel.Chunks(len(d.Txns), n)
	out := make([]*Dataset, len(chunks))
	for i, c := range chunks {
		out[i] = &Dataset{NumItems: d.NumItems, Txns: d.Txns[c.Lo:c.Hi:c.Hi]}
	}
	return out
}

// Support returns the support of the sorted itemset s: the fraction of
// transactions containing every item of s (the region's measure in FOCUS
// terms). It returns 0 for an empty dataset.
func (d *Dataset) Support(s []Item) float64 {
	if len(d.Txns) == 0 {
		return 0
	}
	return float64(d.Count(s)) / float64(len(d.Txns))
}

// Count returns the absolute number of transactions containing every item of
// the sorted itemset s.
func (d *Dataset) Count(s []Item) int {
	n := 0
	for _, t := range d.Txns {
		if t.ContainsAll(s) {
			n++
		}
	}
	return n
}

// CountP is Count with a parallelism knob (0 = the process default, 1 = the
// exact serial path): transactions are sharded across workers and the
// integer per-shard counts are summed in shard order, so the result is
// identical to Count for every worker count.
func (d *Dataset) CountP(s []Item, parallelism int) int {
	n := 0
	parallel.MapReduce(len(d.Txns), parallelism,
		func() *int { return new(int) },
		func(acc *int, c parallel.Chunk) {
			for _, t := range d.Txns[c.Lo:c.Hi] {
				if t.ContainsAll(s) {
					*acc++
				}
			}
		},
		func(acc *int) { n += *acc })
	return n
}

// Sample returns a simple random sample of n transactions drawn without
// replacement, sharing transaction storage with d.
func (d *Dataset) Sample(n int, rng *rand.Rand) *Dataset {
	if n < 0 || n > len(d.Txns) {
		panic(fmt.Sprintf("txn: sample size %d out of range [0,%d]", n, len(d.Txns)))
	}
	idx := make([]int, len(d.Txns))
	for i := range idx {
		idx[i] = i
	}
	out := &Dataset{NumItems: d.NumItems, Txns: make([]Transaction, n)}
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
		out.Txns[i] = d.Txns[idx[i]]
	}
	return out
}

// SampleFraction returns a without-replacement sample of round(frac*|D|)
// transactions; frac must lie in [0,1].
func (d *Dataset) SampleFraction(frac float64, rng *rand.Rand) *Dataset {
	if frac < 0 || frac > 1 {
		panic(fmt.Sprintf("txn: sample fraction %v out of range [0,1]", frac))
	}
	n := int(frac*float64(len(d.Txns)) + 0.5)
	if n > len(d.Txns) {
		n = len(d.Txns)
	}
	return d.Sample(n, rng)
}

// Resample returns a bootstrap resample of n transactions drawn with
// replacement, as a materialized dataset (the transaction slices are
// shared with d).
func (d *Dataset) Resample(n int, rng *rand.Rand) *Dataset {
	if len(d.Txns) == 0 {
		panic("txn: cannot resample an empty dataset")
	}
	out := &Dataset{NumItems: d.NumItems, Txns: make([]Transaction, n)}
	for i := 0; i < n; i++ {
		out.Txns[i] = d.Txns[rng.Intn(len(d.Txns))]
	}
	return out
}

// Write writes the dataset in a simple line-oriented format: the first line
// holds the universe size, then one transaction per line as space-separated
// item ids.
func (d *Dataset) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, d.NumItems); err != nil {
		return err
	}
	var line []byte // one transaction's line, reused
	for _, t := range d.Txns {
		line = line[:0]
		for j, x := range t {
			if j > 0 {
				line = append(line, ' ')
			}
			line = strconv.AppendInt(line, int64(x), 10)
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read reads a dataset in the format produced by Write by draining a
// Source, so decoding is incremental: a malformed line fails after ~that
// many lines in bounded memory, and a successful read always yields a
// dataset that satisfies Validate.
func Read(r io.Reader) (*Dataset, error) {
	src := NewSource(r)
	var d *Dataset
	for {
		batch, err := src.Next(context.Background())
		if err == io.EOF {
			if d == nil {
				d = New(src.numItems)
			}
			return d, nil
		}
		if err != nil {
			return nil, err
		}
		if d == nil {
			d = New(batch.NumItems)
		}
		d.Txns = append(d.Txns, batch.Txns...)
	}
}
