package apriori

import (
	"math/rand"
	"testing"

	"focus/internal/txn"
)

// TestWindowMinerMatchesBatchConcat slides a window of batches through
// push/pop cycles and checks that every mine is bit-identical to mining
// the concatenated window dataset from scratch — same itemsets, same
// order, same counts — including after expiry has subtracted summaries
// back out.
func TestWindowMinerMatchesBatchConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const universe = 24
	var batches []*txn.Dataset
	for i := 0; i < 10; i++ {
		batches = append(batches, diffDataset(rng, 60+rng.Intn(80), universe, 4))
	}
	wm := NewWindowMiner(universe)
	var live []*txn.Dataset
	items := make([]int, universe)
	addItems := func(d *txn.Dataset, sign int) {
		for i, c := range ItemCountsP(d, 1) {
			items[i] += sign * c
		}
	}
	check := func(step int, ms float64) {
		concat := txn.New(universe)
		for _, d := range live {
			for _, tr := range d.Txns {
				concat.Add(append(txn.Transaction(nil), tr...))
			}
		}
		want, err := MineWith(concat, ms, 1, CounterTrie)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wm.Mine(live, items, ms)
		if err != nil {
			t.Fatal(err)
		}
		assertSameMine(t, "window", want, got)
		if _, err := wm.Mine(live, items, 0); err == nil {
			t.Fatalf("step %d: minSupport 0 accepted", step)
		}
	}
	for i, d := range batches {
		wm.Push(d, 1)
		addItems(d, 1)
		live = append(live, d)
		if len(live) > 4 {
			wm.Pop(live[0])
			addItems(live[0], -1)
			live = live[1:]
		}
		for _, ms := range []float64{0.02, 0.15, 0.6} {
			check(i, ms)
		}
	}
	// Drain to empty: an empty window mines to an empty frequent set.
	for len(live) > 0 {
		wm.Pop(live[0])
		addItems(live[0], -1)
		live = live[1:]
	}
	fs, err := wm.Mine(live, items, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Len() != 0 || fs.N != 0 {
		t.Fatalf("drained window mined to %d itemsets, N=%d", fs.Len(), fs.N)
	}
}

func TestUseWindowMiner(t *testing.T) {
	if !UseWindowMiner(100) {
		t.Fatal("skipped the window miner on a small universe")
	}
	if UseWindowMiner(1 << 16) {
		t.Fatal("accepted an outsized pair table")
	}
}

// FuzzWindowMine slides batches decoded from fuzz bytes through both
// streaming window paths: a WindowMiner over the narrow universe, and
// MineConcat over the same rows spread across a universe past
// UseWindowMiner's cap. Every mine of either path must equal vertical
// mining of its concatenated window, including after expiry.
func FuzzWindowMine(f *testing.F) {
	f.Add(uint8(5), uint8(10), uint8(9), []byte{0, 1, 2, 5, 1, 2, 5, 2, 3, 5, 0, 2, 5, 1})
	f.Add(uint8(3), uint8(1), uint8(2), []byte{0, 1, 0, 1, 1, 3, 0, 2, 3, 1, 2})
	f.Add(uint8(12), uint8(30), uint8(27), []byte("the quick brown fox jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, nitems, msRaw, shape uint8, txnData []byte) {
		const wide = 6000
		if UseWindowMiner(wide) {
			t.Fatal("the wide universe takes the window miner")
		}
		universe := int(nitems)%16 + 1
		minSupport := (float64(msRaw%100) + 1) / 100
		batchLen := int(shape)%8 + 1
		window := int(shape/8)%4 + 1
		d := decodeFuzzTxns(universe, txnData)
		// Items spread over the wide universe in the same order, so both
		// paths mine the same itemsets under different ids.
		spread := func(tr txn.Transaction) txn.Transaction {
			out := make(txn.Transaction, len(tr))
			for i, it := range tr {
				out[i] = it*(wide/16) + 7
			}
			return out
		}
		wm := NewWindowMiner(universe)
		narrowItems, wideItems := make([]int, universe), make([]int, wide)
		var live, liveWide []*txn.Dataset
		check := func(label string, parts []*txn.Dataset, numItems int, got *FrequentSet) {
			concat := &txn.Dataset{NumItems: numItems}
			for _, p := range parts {
				concat.Txns = append(concat.Txns, p.Txns...)
			}
			want, err := MineWith(concat, minSupport, 1, CounterBitmap)
			if err != nil {
				t.Fatal(err)
			}
			assertSameMine(t, label, want, got)
		}
		addItems := func(items []int, b *txn.Dataset, sign int) {
			for i, c := range ItemCountsP(b, 1) {
				items[i] += sign * c
			}
		}
		for lo := 0; lo < d.Len(); lo += batchLen {
			narrowB := &txn.Dataset{NumItems: universe, Txns: d.Txns[lo:min(lo+batchLen, d.Len())]}
			wideB := &txn.Dataset{NumItems: wide}
			for _, tr := range narrowB.Txns {
				wideB.Txns = append(wideB.Txns, spread(tr))
			}
			wm.Push(narrowB, 1)
			addItems(narrowItems, narrowB, 1)
			addItems(wideItems, wideB, 1)
			live, liveWide = append(live, narrowB), append(liveWide, wideB)
			if len(live) > window {
				wm.Pop(live[0])
				addItems(narrowItems, live[0], -1)
				addItems(wideItems, liveWide[0], -1)
				live, liveWide = live[1:], liveWide[1:]
			}
			got, err := wm.Mine(live, narrowItems, minSupport)
			if err != nil {
				t.Fatal(err)
			}
			check("window miner", live, universe, got)
			got, err = MineConcat(liveWide, wideItems, minSupport)
			if err != nil {
				t.Fatal(err)
			}
			check("MineConcat", liveWide, wide, got)
		}
	})
}

// MineConcat over no rows mines an empty frequent set, and it refuses a
// support outside (0,1] like every miner.
func TestMineConcatEdges(t *testing.T) {
	for _, parts := range [][]*txn.Dataset{nil, {txn.New(8)}} {
		fs, err := MineConcat(parts, make([]int, 8), 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if fs.Len() != 0 || fs.N != 0 || fs.MinSupport != 0.1 {
			t.Fatalf("%d empty parts mined to %d itemsets, N=%d, support %v", len(parts), fs.Len(), fs.N, fs.MinSupport)
		}
	}
	for _, ms := range []float64{0, 1.5} {
		if _, err := MineConcat(nil, nil, ms); err == nil {
			t.Errorf("minSupport %v accepted", ms)
		}
	}
}
