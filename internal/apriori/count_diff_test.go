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
	"reflect"
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
	// "" is the unset seam and means auto at the engine's decision.
	unset, _ := ParseCounter("")
	memo := randomCountDataset(400, 30, 3)
	VerticalIndexOf(memo, 1)
	for _, d := range []*txn.Dataset{randomCountDataset(60, 40, 1), randomCountDataset(400, 30, 2), memo} {
		if got, want := useVertical(unset, d), useVertical(CounterAuto, d); got != want {
			t.Errorf("useVertical(%q) = %v, auto gives %v", unset, got, want)
		}
	}
}

// TestUseVerticalMemoryCap pins the engine's one decision: the default
// runs vertically wherever the index fits in memory (tiny datasets and
// candidate lists included) or is already memoized, and the
// trie/levelwise path only where the index would not fit — past the
// memory cap, or over a universe far wider than the data's item
// occurrences; a forced backend always wins.
func TestUseVerticalMemoryCap(t *testing.T) {
	tiny := randomCountDataset(20, 40, 4)
	// 60,000 rows over 40,000 items: a 301 MB index, past the 256 MB cap,
	// while the rows only name 30 items, so memoizing it below stays small.
	wide := &txn.Dataset{NumItems: 40000}
	rows := randomCountDataset(600, 30, 5).Txns
	for range 100 {
		wide.Txns = append(wide.Txns, rows...)
	}
	if !useVertical(CounterAuto, tiny) {
		t.Error("auto kept a tiny dataset off the vertical engine")
	}
	if useVertical(CounterAuto, wide) {
		t.Error("auto took the vertical engine past the memory cap")
	}
	// 640 rows naming 1,200 items each over 3,000,000 items: enough item
	// occurrences for the universe, and 10-word bitsets would need 240 MB,
	// under the cap, but the per-item set headers need 72 MB more.
	long := make(txn.Transaction, 1200)
	for i := range long {
		long[i] = txn.Item(i * 2000)
	}
	headers := &txn.Dataset{NumItems: 3_000_000}
	for range 640 {
		headers.Txns = append(headers.Txns, long)
	}
	if useVertical(CounterAuto, headers) {
		t.Error("auto left the index's per-item headers out of the memory cap")
	}
	if useVertical(CounterTrie, tiny) || !useVertical(CounterBitmap, wide) {
		t.Error("a forced backend lost to the memory cap")
	}
	VerticalIndexOf(wide, 1)
	if !useVertical(CounterAuto, wide) {
		t.Error("auto skipped an index already memoized past the cap")
	}
}

// TestUseVerticalWideUniverse pins the data-relative half of the decision
// and that pass 1 follows it: 64 rows over 1,000,000 items would fit under
// the cap (32 MB, almost all per-item headers and counts), but the index
// would be sized by the universe, not the data, so counting, pass 1 and
// mining stay on the trie and memoize nothing. The same rows over a
// universe within occurrenceSlack ids per item occurrence run vertically,
// and there pass 1 builds the index the candidate passes reuse. Pass-1
// counts equal the horizontal scan's either way.
func TestUseVerticalWideUniverse(t *testing.T) {
	rows := randomCountDataset(64, 1000, 6).Txns
	occ := 0
	for _, r := range rows {
		occ += len(r)
	}
	wide := &txn.Dataset{NumItems: 1_000_000, Txns: rows}
	if useVertical(CounterAuto, wide) {
		t.Fatal("auto took the vertical engine for 64 rows over a 1,000,000-item universe")
	}
	sets := []Itemset{{1, 2}, {3}}
	if got, want := CountItemsetsP(wide, sets, 1), CountItemsetsTrie(wide, sets, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("CountItemsetsP = %v, want %v", got, want)
	}
	if _, err := MineP(wide, 0.05, 1); err != nil {
		t.Fatal(err)
	}
	narrow := &txn.Dataset{NumItems: occurrenceSlack * occ, Txns: rows}
	if !useVertical(CounterAuto, narrow) {
		t.Error("auto kept a universe within occurrenceSlack ids per occurrence off the vertical engine")
	}
	if useVertical(CounterAuto, &txn.Dataset{NumItems: occurrenceSlack*occ + 1, Txns: rows}) {
		t.Error("auto took the vertical engine past occurrenceSlack ids per occurrence")
	}
	for _, d := range []*txn.Dataset{wide, narrow} {
		if got, want := ItemCountsP(d, 2), horizontalItemCounts(d, 1); !reflect.DeepEqual(got, want) {
			t.Fatalf("ItemCountsP over %d items differs from the horizontal scan", d.NumItems)
		}
	}
	if wide.HasMemo() {
		t.Error("counting, pass 1 or mining memoized a universe-sized index")
	}
	if !narrow.HasMemo() {
		t.Error("pass 1 scanned horizontally where the engine runs vertically")
	}
}

// CountItemsetsBrute is the quadratic reference implementation of
// itemset counting: every itemset against every transaction.
func CountItemsetsBrute(d *txn.Dataset, sets []Itemset) []int {
	counts := make([]int, len(sets))
	for _, t := range d.Txns {
		for i, s := range sets {
			if t.ContainsAll(s) {
				counts[i]++
			}
		}
	}
	return counts
}

// TestInvalidCounterPanics pins that a Counter outside the vocabulary —
// set directly rather than through ParseCounter — fails loudly instead of
// silently running the trie.
func TestInvalidCounterPanics(t *testing.T) {
	d := randomCountDataset(10, 5, 80)
	cases := map[string]func(){
		"CountItemsetsC": func() { CountItemsetsC(d, []Itemset{{0}}, 1, "btree") },
		"NewEngine":      func() { NewEngine(d, 1, "btree") },
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
