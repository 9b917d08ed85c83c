package apriori

// The differential harness of the two counting backends: for every dataset
// shape the framework can produce — dense, sparse, empty transactions,
// singleton universes, duplicate candidate itemsets, out-of-universe items
// in the candidates — the trie subset scan and the vertical bitmap index
// must return bit-identical counts (and both must match the quadratic
// brute-force reference), at every parallelism. FuzzCountBackends extends
// the sweep to arbitrary encoded inputs.

import (
	"math/rand"
	"testing"

	"focus/internal/txn"
)

// diffDataset builds a random dataset of n transactions over universe
// items with the given expected transaction length, including a sprinkle
// of empty transactions.
func diffDataset(rng *rand.Rand, n, universe, avgLen int) *txn.Dataset {
	d := txn.New(universe)
	for i := 0; i < n; i++ {
		if rng.Intn(20) == 0 {
			d.Add(txn.Transaction{}) // empty transaction
			continue
		}
		l := 1 + rng.Intn(2*avgLen)
		t := make(txn.Transaction, l)
		for j := range t {
			t[j] = txn.Item(rng.Intn(universe))
		}
		d.Add(t.Normalize())
	}
	return d
}

// diffItemsets builds candidate itemsets over a slightly larger alphabet
// than the universe (so some itemsets mention items no transaction can
// contain), with deliberate duplicates and one empty itemset.
func diffItemsets(rng *rand.Rand, count, universe int) []Itemset {
	out := make([]Itemset, 0, count+2)
	for i := 0; i < count; i++ {
		l := 1 + rng.Intn(4)
		items := make([]txn.Item, l)
		for j := range items {
			items[j] = txn.Item(rng.Intn(universe + 2)) // may exceed the universe
		}
		out = append(out, NewItemset(items...))
	}
	if len(out) > 0 {
		out = append(out, out[0].Clone()) // duplicate candidate
	}
	out = append(out, Itemset{}) // empty itemset counts every transaction
	return out
}

func assertSameCounts(t *testing.T, label string, want, got []int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d counts, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: count[%d] = %d, want %d", label, i, got[i], want[i])
		}
	}
}

// TestCountBackendsEquivalent is the randomized differential sweep: trie ==
// bitmap == brute across densities, universes and parallelism.
func TestCountBackendsEquivalent(t *testing.T) {
	cases := []struct {
		name                string
		n, universe, avgLen int
		sets                int
	}{
		{"sparse", 500, 300, 4, 80},
		{"dense", 700, 40, 15, 120},
		{"singleton-universe", 200, 1, 1, 10},
		{"tiny", 3, 20, 4, 30},
		{"wide", 1500, 800, 8, 200},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + ci)))
			d := diffDataset(rng, tc.n, tc.universe, tc.avgLen)
			sets := diffItemsets(rng, tc.sets, tc.universe)
			want := CountItemsetsBrute(d, sets)
			for _, p := range []int{1, 4, 0} {
				assertSameCounts(t, "trie", want, CountItemsetsTrie(d, sets, p))
				assertSameCounts(t, "bitmap", want, CountItemsetsBitmap(d, sets, p))
				assertSameCounts(t, "auto", want, CountItemsetsC(d, sets, p, CounterAuto))
			}
		})
	}
}

// TestCountBackendsEmptyInputs pins the degenerate shapes.
func TestCountBackendsEmptyInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(2000))
	d := diffDataset(rng, 100, 30, 5)
	for _, c := range []Counter{CounterTrie, CounterBitmap, CounterAuto} {
		if got := CountItemsetsC(d, nil, 4, c); len(got) != 0 {
			t.Fatalf("%s: empty sets returned %v", c, got)
		}
		empty := txn.New(30)
		got := CountItemsetsC(empty, diffItemsets(rng, 5, 30), 4, c)
		for i, v := range got {
			if v != 0 {
				t.Fatalf("%s: empty dataset count[%d] = %d", c, i, v)
			}
		}
	}
	// The empty itemset over a non-empty dataset counts |D| in all backends.
	sets := []Itemset{{}}
	if got := CountItemsetsTrie(d, sets, 1)[0]; got != d.Len() {
		t.Fatalf("trie empty-itemset count = %d, want %d", got, d.Len())
	}
	if got := CountItemsetsBitmap(d, sets, 1)[0]; got != d.Len() {
		t.Fatalf("bitmap empty-itemset count = %d, want %d", got, d.Len())
	}
}

// TestMineWithBackendsIdentical mines the same dataset through both
// backends and requires bit-identical frequent sets.
func TestMineWithBackendsIdentical(t *testing.T) {
	d := randomCountDataset(1200, 50, 77)
	trie, err := MineWith(d, 0.04, 1, CounterTrie)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Counter{CounterBitmap, CounterAuto} {
		for _, p := range []int{1, 4} {
			got, err := MineWith(d, 0.04, p, c)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != trie.Len() {
				t.Fatalf("%s/par%d: %d frequent itemsets, trie %d", c, p, got.Len(), trie.Len())
			}
			for i := range trie.Itemsets {
				if !got.Itemsets[i].Equal(trie.Itemsets[i]) || got.Counts[i] != trie.Counts[i] {
					t.Fatalf("%s/par%d: itemset %d mismatch", c, p, i)
				}
			}
		}
	}
}

// TestVerticalIndexMemoized checks that the index is built once per
// dataset and that txn.Dataset.Add invalidates it.
func TestVerticalIndexMemoized(t *testing.T) {
	d := randomCountDataset(300, 25, 78)
	ix1 := VerticalIndexOf(d, 1)
	ix2 := VerticalIndexOf(d, 4)
	if ix1 != ix2 {
		t.Fatal("VerticalIndexOf rebuilt a memoized index")
	}
	if ix1.NumTxns() != d.Len() {
		t.Fatalf("index NumTxns = %d, want %d", ix1.NumTxns(), d.Len())
	}
	d.Add(txn.Transaction{0, 1})
	ix3 := VerticalIndexOf(d, 1)
	if ix3 == ix1 {
		t.Fatal("Add did not invalidate the memoized index")
	}
	if ix3.NumTxns() != d.Len() {
		t.Fatalf("rebuilt index NumTxns = %d, want %d", ix3.NumTxns(), d.Len())
	}
}

// TestVerticalIndexItemCounts cross-checks pass-1 counts between the index
// and the direct scan.
func TestVerticalIndexItemCounts(t *testing.T) {
	d := randomCountDataset(900, 35, 79)
	want := ItemCountsP(d, 1)
	got := BuildVerticalIndex(d, 4).ItemCounts()
	assertSameCounts(t, "item counts", want, got)
}

func TestParseCounter(t *testing.T) {
	for _, name := range []string{"", "auto", "trie", "bitmap"} {
		if _, err := ParseCounter(name); err != nil {
			t.Fatalf("ParseCounter(%q): %v", name, err)
		}
	}
	for _, name := range []string{"btree", "Bitmap", "vertical", "0"} {
		if _, err := ParseCounter(name); err == nil {
			t.Fatalf("ParseCounter(%q) accepted an invalid backend", name)
		}
	}
	// "" is the unset knob and means auto at every decision point.
	unset, _ := ParseCounter("")
	memo := randomCountDataset(400, 30, 3)
	VerticalIndexOf(memo, 1)
	for _, d := range []*txn.Dataset{randomCountDataset(60, 40, 1), randomCountDataset(400, 30, 2), memo} {
		for _, n := range []int{1, 8, 500} {
			if got, want := resolveCounter(unset, d, n), resolveCounter(CounterAuto, d, n); got != want {
				t.Errorf("resolveCounter(%q, n=%d) = %q, auto gives %q", unset, n, got, want)
			}
			if got, want := resolveMiner(unset, d, n), resolveMiner(CounterAuto, d, n); got != want {
				t.Errorf("resolveMiner(%q, n=%d) = %q, auto gives %q", unset, n, got, want)
			}
		}
		if UseViewBootstrap(unset, d) != UseViewBootstrap(CounterAuto, d) {
			t.Errorf("UseViewBootstrap(%q) differs from auto", unset)
		}
		if UseWindowMiner(unset, d.NumItems) != UseWindowMiner(CounterAuto, d.NumItems) {
			t.Errorf("UseWindowMiner(%q) differs from auto", unset)
		}
	}
}

// TestInvalidCounterPanics pins that a Counter outside the vocabulary —
// set directly rather than through ParseCounter — fails loudly instead of
// silently running the trie.
func TestInvalidCounterPanics(t *testing.T) {
	d := randomCountDataset(10, 5, 80)
	cases := map[string]func(){
		"CountItemsetsC": func() { CountItemsetsC(d, []Itemset{{0}}, 1, "btree") },
		"NewSource":      func() { NewSource(d, 1, "btree") },
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted an unknown counter silently", name)
				}
			}()
			fn()
		})
	}
}

// decodeFuzzTxns decodes fuzz bytes into transactions over [0, universe):
// each byte is an item; a byte mapping to the universe size ends the
// current transaction, which may leave it empty.
func decodeFuzzTxns(universe int, data []byte) *txn.Dataset {
	d := txn.New(universe)
	var cur txn.Transaction
	for _, b := range data {
		v := int(b) % (universe + 1)
		if v == universe {
			d.Add(cur.Normalize())
			cur = nil
			continue
		}
		cur = append(cur, txn.Item(v))
	}
	if len(cur) > 0 {
		d.Add(cur.Normalize())
	}
	return d
}

// decodeFuzzSets decodes fuzz bytes into candidate itemsets over a
// slightly larger alphabet than the universe, so out-of-universe items are
// exercised.
func decodeFuzzSets(universe int, data []byte) []Itemset {
	var out []Itemset
	var cur []txn.Item
	for _, b := range data {
		v := int(b) % (universe + 3)
		if v >= universe+1 {
			out = append(out, NewItemset(cur...))
			cur = nil
			continue
		}
		cur = append(cur, txn.Item(v))
	}
	out = append(out, NewItemset(cur...))
	return out
}

// FuzzCountBackends cross-checks the two backends (and the brute-force
// reference) on arbitrary encoded datasets and candidate collections. Any
// divergence between trie and bitmap counts is a bug by definition.
func FuzzCountBackends(f *testing.F) {
	f.Add(uint8(5), []byte{0, 1, 2, 5, 1, 2, 5, 2, 3}, []byte{1, 2, 6, 2, 3})
	f.Add(uint8(1), []byte{0, 1, 0, 1, 1}, []byte{0, 1, 0})
	f.Add(uint8(64), []byte("the quick brown fox"), []byte("jumps over"))
	f.Add(uint8(0), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, nitems uint8, txnData, setData []byte) {
		universe := int(nitems)%64 + 1
		d := decodeFuzzTxns(universe, txnData)
		if err := d.Validate(); err != nil {
			t.Fatalf("decoder produced an invalid dataset: %v", err)
		}
		sets := decodeFuzzSets(universe, setData)
		want := CountItemsetsBrute(d, sets)
		for _, p := range []int{1, 3} {
			assertSameCounts(t, "trie", want, CountItemsetsTrie(d, sets, p))
			assertSameCounts(t, "bitmap", want, CountItemsetsBitmap(d, sets, p))
		}
		assertSameCounts(t, "auto", want, CountItemsetsC(d, sets, 2, CounterAuto))
	})
}
