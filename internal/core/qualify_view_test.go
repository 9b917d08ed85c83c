package core

import (
	"math/rand"
	"testing"

	"focus/internal/apriori"
	"focus/internal/txn"
)

// The view bootstrap must be invisible: Qualify through the trie reference
// (which keeps the generic materialized-resample path) and through Lits
// (which mines exploded view pairs over the packed pool) must produce
// bit-identical deviations, significances, and null distributions, at
// every parallelism. Run under -race this also shakes out sharing bugs
// between concurrent view workers.

func qualifyViewData(t *testing.T) (*txn.Dataset, *txn.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(91))
	d1 := skewedTxnDataset(rng, 500, 30, 6)
	d2 := skewedTxnDataset(rng, 650, 30, 7)
	return d1, d2
}

func TestQualifyViewBootstrapEquivalence(t *testing.T) {
	d1, d2 := qualifyViewData(t)
	if _, ok := any(Lits(0.05)).(bootstrapper[*txn.Dataset]); !ok {
		t.Fatal("litsClass lost its bootstrapper fast path")
	}
	if _, ok := any(newTrieLits(0.05)).(bootstrapper[*txn.Dataset]); ok {
		t.Fatal("the trie reference exposes the fast path")
	}
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
			want, err := Qualify[*txn.Dataset, *LitsModel](newTrieLits(0.05), d1, d2, AbsoluteDiff, Sum, base...)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{1, 4} {
				opts := append([]Option{WithReplicates(11), WithSeed(7), WithParallelism(p)}, tc.opts...)
				got, err := Qualify(Lits(0.05), d1, d2, AbsoluteDiff, Sum, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if got.Deviation != want.Deviation || got.Significance != want.Significance {
					t.Fatalf("par%d: (dev, sig) = (%v, %v), trie (%v, %v)",
						p, got.Deviation, got.Significance, want.Deviation, want.Significance)
				}
				for i := range want.Null {
					if got.Null[i] != want.Null[i] {
						t.Fatalf("par%d: null[%d] = %v, trie %v", p, i, got.Null[i], want.Null[i])
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
		got, err := Qualify(Lits(0.05), d1, d2, AbsoluteDiff, Sum,
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

// TestUseViewBootstrapGate pins the view bootstrap's one rule, the memory
// cap: a pool takes the view path unless a worker's view pair over its
// universe would exceed it.
func TestUseViewBootstrapGate(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	big := skewedTxnDataset(rng, 600, 20, 5)
	wide := &txn.Dataset{NumItems: 1 << 23, Txns: big.Txns}
	if !apriori.UseViewBootstrap(big) {
		t.Fatal("skipped the view bootstrap on a pool that fits")
	}
	if apriori.UseViewBootstrap(wide) {
		t.Fatal("took the view bootstrap over a universe whose view pair exceeds the cap")
	}
}
