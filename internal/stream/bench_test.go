package stream

import (
	"testing"

	"focus/internal/core"
	"focus/internal/txn"
)

// The benchmarks compare one window advance through the incremental
// monitor (mergeable per-batch summaries; only the new batch is scanned)
// against rebuilding the window's model from its raw batches — the
// ablation that justifies the summary/merge layer.

func benchStream(b *testing.B) (*txn.Dataset, [][]txn.Transaction) {
	b.Helper()
	const numItems = 200
	batches := randTxnBatches(1, 64, 500, numItems, 10)
	ref := concatTxns(numItems, randTxnBatches(2, 8, 500, numItems, 10), []int{0, 1, 2, 3, 4, 5, 6, 7})
	return ref, batches
}

func BenchmarkLitsMonitorIncremental(b *testing.B) {
	b.ReportAllocs()
	ref, batches := benchStream(b)
	const minSupport = 0.02
	mon, err := New(core.Lits(minSupport), ref, Options{WindowBatches: 8, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mon.Ingest(&txn.Dataset{NumItems: ref.NumItems, Txns: batches[i%len(batches)]}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLitsRebuildFromScratch(b *testing.B) {
	b.ReportAllocs()
	ref, batches := benchStream(b)
	const minSupport = 0.02
	refModel, err := core.MineLitsP(ref, minSupport, 1)
	if err != nil {
		b.Fatal(err)
	}
	var win []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		win = append(win, i%len(batches))
		if len(win) > 8 {
			win = win[1:]
		}
		winData := concatTxns(ref.NumItems, batches, win)
		m2, err := core.MineLitsP(winData, minSupport, 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Deviation(core.Lits(minSupport), refModel, m2, ref, winData, core.AbsoluteDiff, core.Sum, core.WithParallelism(1)); err != nil {
			b.Fatal(err)
		}
	}
}
