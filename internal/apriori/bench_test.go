package apriori

import (
	"math/rand"
	"testing"

	"focus/internal/quest"
	"focus/internal/txn"
)

// BenchmarkAblationCountingBrute prices the quadratic reference count
// (every itemset against every transaction) on the workload of the root
// package's BenchmarkAblationCountingTrie: 5,000 Quest transactions over
// 500 items and 200 random itemsets of one to three items.
func BenchmarkAblationCountingBrute(b *testing.B) {
	b.ReportAllocs()
	cfg := quest.DefaultConfig(5000)
	cfg.NumItems = 500
	cfg.NumPatterns = 400
	cfg.AvgTxnLen = 10
	cfg.Seed = 9
	d, err := quest.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	sets := make([]Itemset, 200)
	for i := range sets {
		items := make([]txn.Item, 1+rng.Intn(3))
		for j := range items {
			items[j] = txn.Item(rng.Intn(cfg.NumItems))
		}
		sets[i] = NewItemset(items...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CountItemsetsBrute(d, sets)
	}
}
