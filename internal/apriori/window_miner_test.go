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
		got, err := wm.Mine(ms)
		if err != nil {
			t.Fatal(err)
		}
		assertSameMine(t, "window", want, got)
		if _, err := wm.Mine(0); err == nil {
			t.Fatalf("step %d: minSupport 0 accepted", step)
		}
	}
	for i, d := range batches {
		wm.Push(d, 1)
		live = append(live, d)
		if len(live) > 4 {
			wm.Pop()
			live = live[1:]
		}
		for _, ms := range []float64{0.02, 0.15, 0.6} {
			check(i, ms)
		}
	}
	// Drain to empty: an empty window mines to an empty frequent set.
	for len(live) > 0 {
		wm.Pop()
		live = live[1:]
	}
	fs, err := wm.Mine(0.1)
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
