package apriori

import (
	"math/rand"
	"testing"

	"focus/internal/txn"
)

func randomCountDataset(n, universe int, seed int64) *txn.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := txn.New(universe)
	for i := 0; i < n; i++ {
		l := 1 + rng.Intn(12)
		t := make(txn.Transaction, l)
		for j := range t {
			t[j] = txn.Item(rng.Intn(universe))
		}
		d.Add(t.Normalize())
	}
	return d
}

func randomCountItemsets(count, universe int, seed int64) []Itemset {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Itemset, count)
	for i := range out {
		l := 1 + rng.Intn(3)
		items := make([]txn.Item, l)
		for j := range items {
			items[j] = txn.Item(rng.Intn(universe))
		}
		out[i] = NewItemset(items...)
	}
	return out
}

func TestCountItemsetsPMatchesSerial(t *testing.T) {
	d := randomCountDataset(2003, 120, 70)
	sets := randomCountItemsets(150, 120, 71)
	want := CountItemsets(d, sets)
	for _, p := range []int{2, 3, 8, 0} {
		got := CountItemsetsP(d, sets, p)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d: count[%d] = %d, serial %d", p, i, got[i], want[i])
			}
		}
	}
}

func TestCountItemsetsPEdgeCases(t *testing.T) {
	d := randomCountDataset(50, 40, 72)
	if got := CountItemsetsP(d, nil, 4); len(got) != 0 {
		t.Fatalf("empty sets: got %v", got)
	}
	empty := txn.New(40)
	got := CountItemsetsP(empty, randomCountItemsets(5, 40, 73), 4)
	for i, c := range got {
		if c != 0 {
			t.Fatalf("empty dataset: count[%d] = %d", i, c)
		}
	}
	// More workers than transactions.
	tiny := randomCountDataset(3, 40, 74)
	sets := randomCountItemsets(10, 40, 75)
	want := CountItemsets(tiny, sets)
	gotTiny := CountItemsetsP(tiny, sets, 16)
	for i := range want {
		if gotTiny[i] != want[i] {
			t.Fatalf("tiny dataset parallelism 16: count[%d] = %d, serial %d", i, gotTiny[i], want[i])
		}
	}
}

func TestMinePMatchesSerial(t *testing.T) {
	d := randomCountDataset(1500, 60, 76)
	serial, err := MineP(d, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 5, 0} {
		par, err := MineP(d, 0.05, p)
		if err != nil {
			t.Fatal(err)
		}
		if par.Len() != serial.Len() {
			t.Fatalf("parallelism %d: %d frequent itemsets, serial %d", p, par.Len(), serial.Len())
		}
		for i := range serial.Itemsets {
			if !par.Itemsets[i].Equal(serial.Itemsets[i]) || par.Counts[i] != serial.Counts[i] {
				t.Fatalf("parallelism %d: itemset %d mismatch", p, i)
			}
		}
	}
}
