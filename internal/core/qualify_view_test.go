package core

import (
	"math/rand"
	"testing"

	"focus/internal/apriori"
	"focus/internal/txn"
)

// The view bootstrap must be invisible: Qualify through the trie backend
// (which keeps the generic materialized-resample path) and through the
// bitmap/auto backends (which mine exploded view pairs over the packed
// pool) must produce bit-identical deviations, significances, and null
// distributions, at every parallelism. Run under -race this also shakes
// out sharing bugs between concurrent view workers.

func qualifyViewData(t *testing.T) (*txn.Dataset, *txn.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(91))
	d1 := skewedTxnDataset(rng, 500, 30, 6)
	d2 := skewedTxnDataset(rng, 650, 30, 7)
	return d1, d2
}

func TestQualifyViewBootstrapEquivalence(t *testing.T) {
	d1, d2 := qualifyViewData(t)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"plain", nil},
		{"extension", []Option{WithExtension()}},
		{"focused", []Option{WithFocusItemsets(func(s apriori.Itemset) bool { return len(s) >= 2 })}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := append([]Option{WithReplicates(11), WithSeed(7), WithParallelism(1)}, tc.opts...)
			want, err := Qualify(LitsWithCounter(0.05, apriori.CounterTrie), d1, d2, AbsoluteDiff, Sum, base...)
			if err != nil {
				t.Fatal(err)
			}
			for _, counter := range []apriori.Counter{apriori.CounterBitmap, apriori.CounterAuto} {
				for _, p := range []int{1, 4} {
					opts := append([]Option{WithReplicates(11), WithSeed(7), WithParallelism(p)}, tc.opts...)
					got, err := Qualify(LitsWithCounter(0.05, counter), d1, d2, AbsoluteDiff, Sum, opts...)
					if err != nil {
						t.Fatal(err)
					}
					if got.Deviation != want.Deviation || got.Significance != want.Significance {
						t.Fatalf("%s/par%d: (dev, sig) = (%v, %v), trie (%v, %v)",
							counter, p, got.Deviation, got.Significance, want.Deviation, want.Significance)
					}
					for i := range want.Null {
						if got.Null[i] != want.Null[i] {
							t.Fatalf("%s/par%d: null[%d] = %v, trie %v",
								counter, p, i, got.Null[i], want.Null[i])
						}
					}
				}
			}
		})
	}
}

// Each bootstrap worker owns one view pair for all its replicates; the
// null must not depend on how the replicates split across workers.
func TestQualifyViewWorkerOwnedPairs(t *testing.T) {
	d1, d2 := qualifyViewData(t)
	var want []float64
	for _, p := range []int{1, 2, 4} {
		got, err := Qualify(LitsWithCounter(0.05, apriori.CounterBitmap), d1, d2, AbsoluteDiff, Sum,
			WithReplicates(13), WithSeed(8), WithParallelism(p), WithExtension())
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got.Null
			continue
		}
		for i := range want {
			if got.Null[i] != want[i] {
				t.Fatalf("par%d: null[%d] = %v, serial %v", p, i, got.Null[i], want[i])
			}
		}
	}
}

// TestUseViewBootstrapGate pins the knob semantics: trie never takes the
// view path, bitmap always does, and auto declines a tiny pool (an index
// memoized on it changes nothing: views do not use it) and a universe
// whose per-worker view pair would exceed the memory cap.
func TestUseViewBootstrapGate(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	big := skewedTxnDataset(rng, 600, 20, 5)
	tiny := skewedTxnDataset(rng, 20, 20, 5)
	apriori.VerticalIndexOf(tiny, 1)
	wide := &txn.Dataset{NumItems: 1 << 23, Txns: big.Txns}
	if apriori.UseViewBootstrap(apriori.CounterTrie, big) {
		t.Fatal("trie backend took the view bootstrap")
	}
	if !apriori.UseViewBootstrap(apriori.CounterBitmap, tiny) {
		t.Fatal("bitmap backend skipped the view bootstrap")
	}
	if !apriori.UseViewBootstrap(apriori.CounterAuto, big) {
		t.Fatal("auto skipped the view bootstrap on an index-worthy pool")
	}
	if apriori.UseViewBootstrap(apriori.CounterAuto, tiny) {
		t.Fatal("auto took the view bootstrap on a tiny pool")
	}
	if apriori.UseViewBootstrap(apriori.CounterAuto, wide) {
		t.Fatal("auto took the view bootstrap over a universe whose view pair exceeds the cap")
	}
	if !apriori.UseViewBootstrap(apriori.CounterBitmap, wide) {
		t.Fatal("bitmap backend skipped the view bootstrap over a wide universe")
	}
}
