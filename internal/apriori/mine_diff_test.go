package apriori

// Differential harness for the miners: the levelwise (trie) miner, the
// vertical (Eclat/dEclat) miner, and a brute-force reference that
// enumerates every itemset of a small universe must produce identical
// FrequentSets — same itemsets, same lexicographic order, same counts —
// at every parallelism. FuzzMineBackends extends the sweep to arbitrary
// encoded inputs.

import (
	"math/rand"
	"sort"
	"testing"

	"focus/internal/txn"
)

// bruteMine mines d by enumerating every non-empty itemset of the
// universe (so universes must stay small), counting each with the
// brute-force counter, and keeping those meeting the threshold.
func bruteMine(d *txn.Dataset, minSupport float64) *FrequentSet {
	out := &FrequentSet{MinSupport: minSupport, N: d.Len()}
	if d.Len() == 0 {
		return out
	}
	var sets []Itemset
	for mask := 1; mask < 1<<d.NumItems; mask++ {
		var s Itemset
		for it := 0; it < d.NumItems; it++ {
			if mask&(1<<it) != 0 {
				s = append(s, txn.Item(it))
			}
		}
		sets = append(sets, s)
	}
	counts := CountItemsetsBrute(d, sets)
	minCount := minCountFor(minSupport, d.Len())
	for i, s := range sets {
		if counts[i] >= minCount {
			out.Itemsets = append(out.Itemsets, s)
			out.Counts = append(out.Counts, counts[i])
		}
	}
	order := make([]int, len(out.Itemsets))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return out.Itemsets[order[a]].Less(out.Itemsets[order[b]])
	})
	its := make([]Itemset, len(order))
	cnt := make([]int, len(order))
	for i, o := range order {
		its[i], cnt[i] = out.Itemsets[o], out.Counts[o]
	}
	out.Itemsets, out.Counts = its, cnt
	return out
}

// assertSameMine fails unless got matches want itemset-for-itemset,
// count-for-count, in the same order.
func assertSameMine(t *testing.T, label string, want, got *FrequentSet) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("%s: N = %d, want %d", label, got.N, want.N)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d frequent itemsets, want %d", label, got.Len(), want.Len())
	}
	for i := range want.Itemsets {
		if !got.Itemsets[i].Equal(want.Itemsets[i]) || got.Counts[i] != want.Counts[i] {
			t.Fatalf("%s: itemset %d = %v (count %d), want %v (count %d)",
				label, i, got.Itemsets[i], got.Counts[i], want.Itemsets[i], want.Counts[i])
		}
	}
}

// TestMineBackendsDifferential sweeps dataset shapes — sparse, dense,
// duplicate-heavy, singleton universe, tiny, with empty transactions
// sprinkled in by diffDataset — and asserts trie mining == vertical
// mining == brute force at several thresholds and parallelisms.
func TestMineBackendsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct {
		name     string
		n        int
		universe int
		avgLen   int
	}{
		{"sparse", 400, 12, 2},
		{"dense", 300, 8, 5},
		{"singleton-universe", 150, 1, 1},
		{"tiny", 3, 6, 3},
		{"mid", 800, 10, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := diffDataset(rng, tc.n, tc.universe, tc.avgLen)
			// Duplicate a slice of transactions so multiplicities > 1 exist.
			for i := 0; i < d.Len() && i < 10; i++ {
				d.Add(append(txn.Transaction(nil), d.Txns[i]...))
			}
			for _, ms := range []float64{0.01, 0.05, 0.2, 0.7, 1.0} {
				want := bruteMine(d, ms)
				for _, p := range []int{1, 4, 0} {
					trie, err := MineWith(d, ms, p, CounterTrie)
					if err != nil {
						t.Fatal(err)
					}
					vert, err := MineWith(d, ms, p, CounterBitmap)
					if err != nil {
						t.Fatal(err)
					}
					assertSameMine(t, "trie", want, trie)
					assertSameMine(t, "vertical", want, vert)
				}
			}
		})
	}
}

// TestMineEmptyAndEdgeCases pins the degenerate inputs both miners must
// agree on: the empty dataset, a dataset of only empty transactions, and
// invalid thresholds.
func TestMineEmptyAndEdgeCases(t *testing.T) {
	empty := txn.New(5)
	for _, mine := range []struct {
		name string
		fn   func(*txn.Dataset, float64) (*FrequentSet, error)
	}{
		{"trie", func(d *txn.Dataset, ms float64) (*FrequentSet, error) { return MineWith(d, ms, 1, CounterTrie) }},
		{"vertical", func(d *txn.Dataset, ms float64) (*FrequentSet, error) { return MineWith(d, ms, 1, CounterBitmap) }},
	} {
		t.Run(mine.name, func(t *testing.T) {
			fs, err := mine.fn(empty, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			if fs.Len() != 0 || fs.N != 0 {
				t.Fatalf("empty dataset mined to %d itemsets, N=%d", fs.Len(), fs.N)
			}
			blanks := txn.New(4)
			for i := 0; i < 7; i++ {
				blanks.Add(txn.Transaction{})
			}
			fs, err = mine.fn(blanks, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if fs.Len() != 0 || fs.N != 7 {
				t.Fatalf("all-empty dataset mined to %d itemsets, N=%d", fs.Len(), fs.N)
			}
			for _, bad := range []float64{0, -0.5, 1.5} {
				if _, err := mine.fn(empty, bad); err == nil {
					t.Fatalf("minSupport %v accepted", bad)
				}
			}
		})
	}
}

// FuzzMineBackends cross-checks the two miners on arbitrary encoded
// datasets and thresholds. Any divergence in the mined frequent sets —
// membership, order, or counts — is a bug by definition.
func FuzzMineBackends(f *testing.F) {
	f.Add(uint8(5), uint8(10), []byte{0, 1, 2, 5, 1, 2, 5, 2, 3})
	f.Add(uint8(3), uint8(1), []byte{0, 1, 0, 1, 1, 3, 0, 2, 3, 1, 2})
	f.Add(uint8(12), uint8(50), []byte("the quick brown fox jumps over the lazy dog"))
	f.Add(uint8(0), uint8(100), []byte{})
	f.Fuzz(func(t *testing.T, nitems, msRaw uint8, txnData []byte) {
		universe := int(nitems)%16 + 1
		d := decodeFuzzTxns(universe, txnData)
		if err := d.Validate(); err != nil {
			t.Fatalf("decoder produced an invalid dataset: %v", err)
		}
		minSupport := (float64(msRaw%100) + 1) / 100
		want, err := MineWith(d, minSupport, 1, CounterTrie)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 3} {
			got, err := MineWith(d, minSupport, p, CounterBitmap)
			if err != nil {
				t.Fatal(err)
			}
			assertSameMine(t, "vertical", want, got)
		}
	})
}
