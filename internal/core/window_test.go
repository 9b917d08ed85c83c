package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"focus/internal/txn"
)

func windowTestBatches(seed int64, batches, size, numItems, maxLen int) []*txn.Dataset {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*txn.Dataset, batches)
	for b := range out {
		d := txn.New(numItems)
		for i := 0; i < size; i++ {
			t := make(txn.Transaction, 1+rng.Intn(maxLen))
			for j := range t {
				t[j] = txn.Item(rng.Intn(numItems))
			}
			d.Add(t.Normalize())
		}
		out[b] = d
	}
	return out
}

// checkLitsAggregates requires the window's row count and pass-1 item
// counts to equal the sums over its live batches.
func checkLitsAggregates(t *testing.T, step string, w Window[*txn.Dataset, *LitsModel]) {
	t.Helper()
	lw := w.(*litsWindow)
	wantN := 0
	items := make([]int, lw.numItems)
	for _, b := range lw.batchList {
		wantN += b.data.Len()
		for j, v := range b.items {
			items[j] += v
		}
	}
	if lw.n != wantN || w.N() != wantN {
		t.Errorf("%s: window n=%d, want %d", step, lw.n, wantN)
	}
	for j := range items {
		if items[j] != lw.items[j] {
			t.Fatalf("%s: windowed item counts diverged at item %d: %d != %d", step, j, lw.items[j], items[j])
		}
	}
}

// The window aggregates must track the live batches exactly across Add,
// RemoveFront and Clone, on the clone and its origin alike, and the
// window's model must be mined from them.
func TestLitsWindowAggregates(t *testing.T) {
	const numItems = 20
	w, err := Lits(0.08).NewWindow(1)
	if err != nil {
		t.Fatal(err)
	}
	batches := windowTestBatches(95, 5, 30, numItems, 6)
	for i, d := range batches[:3] {
		if err := w.Add(d, 1); err != nil {
			t.Fatal(err)
		}
		checkLitsAggregates(t, fmt.Sprintf("add %d", i), w)
	}
	m, err := w.Induce()
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() == 0 {
		t.Fatal("window model has no frequent itemsets")
	}
	want, err := MineLits(w.Data(), 0.08)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.FS.Itemsets, want.FS.Itemsets) || !reflect.DeepEqual(m.FS.Counts, want.FS.Counts) {
		t.Error("window model differs from mining the window's raw data")
	}
	snap := w.Clone()
	w.RemoveFront()
	checkLitsAggregates(t, "remove", w)
	checkLitsAggregates(t, "clone after origin remove", snap)
	if err := w.Add(batches[3], 1); err != nil {
		t.Fatal(err)
	}
	snap.RemoveFront()
	if err := snap.Add(batches[4], 1); err != nil {
		t.Fatal(err)
	}
	checkLitsAggregates(t, "origin after clone advance", w)
	checkLitsAggregates(t, "clone advance", snap)
	for len(w.(*litsWindow).batchList) > 0 {
		w.RemoveFront()
		checkLitsAggregates(t, "drain", w)
	}
}

// A clone shares sealed batch summaries with its origin: removing a batch
// from one must not disturb the other, and the clone must mine what its
// raw data mines.
func TestLitsWindowCloneSharesSummaries(t *testing.T) {
	const numItems = 15
	w, err := Lits(0.1).NewWindow(1)
	if err != nil {
		t.Fatal(err)
	}
	batches := windowTestBatches(96, 3, 25, numItems, 5)
	for _, d := range batches[:2] {
		if err := w.Add(d, 1); err != nil {
			t.Fatal(err)
		}
	}
	snap := w.Clone()
	if err := w.Add(batches[2], 1); err != nil {
		t.Fatal(err)
	}
	w.RemoveFront()
	if snap.Batches() != 2 || snap.N() != batches[0].Len()+batches[1].Len() {
		t.Errorf("clone tracks origin mutations: %d batches / %d rows", snap.Batches(), snap.N())
	}
	m1, err := snap.Induce()
	if err != nil {
		t.Fatal(err)
	}
	// Inducing from the clone must equal inducing from its raw data.
	m2, err := MineLits(snap.Data(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Len() != m2.Len() {
		t.Errorf("clone model has %d itemsets, raw rebuild %d", m1.Len(), m2.Len())
	}
}

// MeasureGCRWindows takes supports from the models, so a model induced
// from other data than its window is refused rather than measured.
func TestLitsMeasureGCRWindowsStaleModel(t *testing.T) {
	mc := Lits(0.1)
	batches := windowTestBatches(97, 3, 25, 15, 5)
	w1, err := mc.NewWindow(1)
	if err != nil {
		t.Fatal(err)
	}
	w2 := w1.Clone()
	for _, step := range []struct {
		w Window[*txn.Dataset, *LitsModel]
		d *txn.Dataset
	}{{w1, batches[0]}, {w2, batches[1]}} {
		if err := step.w.Add(step.d, 1); err != nil {
			t.Fatal(err)
		}
	}
	m1, err := w1.Induce()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := w2.Induce()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.MeasureGCRWindows(m1, m2, w1, w2); err != nil {
		t.Fatalf("models of their windows refused: %v", err)
	}
	if err := w2.Add(batches[2], 1); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.MeasureGCRWindows(m1, m2, w1, w2); err == nil {
		t.Fatal("a model of the window before its last batch was measured")
	}
}
