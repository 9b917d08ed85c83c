package focus_test

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benchmarks for the design choices called out in DESIGN.md.
//
// Benchmarks default to the "quick" scale so that `go test -bench=.` is
// practical; set FOCUS_BENCH_SCALE=laptop (the DESIGN.md default for
// reported numbers) or FOCUS_BENCH_SCALE=paper to reproduce at larger
// sizes. Each bench prints the regenerated rows/series once, so a bench run
// doubles as a reproduction log.

import (
	"math/rand"
	"os"
	"sync"
	"testing"

	"focus"
	"focus/internal/apriori"
	"focus/internal/classgen"
	"focus/internal/core"
	"focus/internal/dataset"
	"focus/internal/dtree"
	"focus/internal/experiments"
	"focus/internal/quest"
	"focus/internal/txn"
)

func benchScale(b *testing.B) experiments.Scale {
	name := os.Getenv("FOCUS_BENCH_SCALE")
	if name == "" {
		name = "quick"
	}
	sc, err := experiments.ScaleByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

var printOnce sync.Map

// printFirst prints the regenerated result once per benchmark name.
func printFirst(b *testing.B, render func()) {
	if _, loaded := printOnce.LoadOrStore(b.Name(), true); !loaded {
		render()
	}
}

func BenchmarkTable1LitsSignificance(b *testing.B) {
	b.ReportAllocs()
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(sc, 1)
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, func() { res.Print(os.Stdout) })
	}
}

func BenchmarkTable2DTSignificance(b *testing.B) {
	b.ReportAllocs()
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(sc, 2)
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, func() { res.Print(os.Stdout) })
	}
}

func benchLitsCurves(b *testing.B, sizeIdx int) {
	b.ReportAllocs()
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.LitsSDCurves(sc, sizeIdx, 3)
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, func() { res.Print(os.Stdout) })
	}
}

func BenchmarkFig7LitsSDvsSF(b *testing.B) { benchLitsCurves(b, 0) }
func BenchmarkFig8LitsSDvsSF(b *testing.B) { benchLitsCurves(b, 1) }
func BenchmarkFig9LitsSDvsSF(b *testing.B) { benchLitsCurves(b, 2) }

func benchDTCurves(b *testing.B, sizeIdx int) {
	b.ReportAllocs()
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.DTSDCurves(sc, sizeIdx, 4)
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, func() { res.Print(os.Stdout) })
	}
}

func BenchmarkFig10DTSDvsSF(b *testing.B) { benchDTCurves(b, 0) }
func BenchmarkFig11DTSDvsSF(b *testing.B) { benchDTCurves(b, 1) }
func BenchmarkFig12DTSDvsSF(b *testing.B) { benchDTCurves(b, 2) }

func BenchmarkFig13LitsDeviationTable(b *testing.B) {
	b.ReportAllocs()
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig13(sc, 5)
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, func() { res.Print(os.Stdout) })
	}
}

func BenchmarkFig14DTDeviationTable(b *testing.B) {
	b.ReportAllocs()
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig14(sc, 6)
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, func() { res.Print(os.Stdout) })
	}
}

func BenchmarkFig15MEvsDeviation(b *testing.B) {
	b.ReportAllocs()
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig15(sc, 7)
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, func() { res.Print(os.Stdout) })
	}
}

// ---- ablation benchmarks (design choices from DESIGN.md §5) ----

func ablationTxnData(b *testing.B, n int) (*txn.Dataset, *txn.Dataset) {
	b.Helper()
	cfg := quest.DefaultConfig(n)
	cfg.NumItems = 500
	cfg.NumPatterns = 400
	cfg.AvgTxnLen = 10
	cfg.Seed = 9
	d1, err := quest.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Seed = 10
	d2, err := quest.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return d1, d2
}

// Trie-based subset counting vs the brute-force scan
// (BenchmarkAblationCountingBrute in internal/apriori; Apriori measure
// computation; the single-scan GCR extension of Section 3.3.1 rides on it).
// Forced to the trie backend so the ablation keeps measuring the trie now
// that the default runs the vertical engine.
func BenchmarkAblationCountingTrie(b *testing.B) {
	b.ReportAllocs()
	d, _ := ablationTxnData(b, 5000)
	sets := randomItemsets(200, 500, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apriori.CountItemsetsTrie(d, sets, 1)
	}
}

// Sharded trie counting vs the serial trie scan above: per-shard count
// vectors merged in shard order (bit-identical results; the speedup is the
// point). Compare against BenchmarkAblationCountingTrie.
func BenchmarkParallelCountingTrie(b *testing.B) {
	b.ReportAllocs()
	d, _ := ablationTxnData(b, 5000)
	sets := randomItemsets(200, 500, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apriori.CountItemsetsTrie(d, sets, 0)
	}
}

// ---- counting-backend benchmarks (trie vs vertical bitmap) ----

// countBenchData is the quick-scale dense workload of the backend pair:
// short universe, long transactions, a realistic GCR-sized candidate
// collection. Dense data is the trie's worst case (deep descents on every
// transaction) and the bitmap's best (high popcount yield per word) — the
// regime auto selects the bitmap for.
func countBenchData(b *testing.B) (*txn.Dataset, []apriori.Itemset) {
	b.Helper()
	cfg := quest.DefaultConfig(4000)
	cfg.NumItems = 250
	cfg.NumPatterns = 300
	cfg.AvgTxnLen = 25
	cfg.Seed = 21
	d, err := quest.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return d, randomItemsets(400, 250, 22)
}

// BenchmarkCountTrie / BenchmarkCountBitmap are the headline pair of the
// vertical-index PR: identical workload, identical (bit-for-bit) counts,
// different backend. Both run serially so the comparison isolates the
// algorithm, not the worker pool.
func BenchmarkCountTrie(b *testing.B) {
	b.ReportAllocs()
	d, sets := countBenchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apriori.CountItemsetsTrie(d, sets, 1)
	}
}

func BenchmarkCountBitmap(b *testing.B) {
	b.ReportAllocs()
	d, sets := countBenchData(b)
	apriori.VerticalIndexOf(d, 0) // build outside the timer; memoized thereafter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apriori.CountItemsetsBitmap(d, sets, 1)
	}
}

// BenchmarkCountBitmapBuild prices the one-time index construction the
// memo amortizes across scans.
func BenchmarkCountBitmapBuild(b *testing.B) {
	b.ReportAllocs()
	d, _ := countBenchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apriori.BuildVerticalIndex(d, 0)
	}
}

// BenchmarkMineTrie / BenchmarkMineVertical are the mining twin of the
// counting pair above: identical workload, bit-identical frequent sets,
// levelwise trie passes vs the intersection-driven vertical DFS. Both run
// serially so the comparison isolates the algorithm.
func BenchmarkMineTrie(b *testing.B) {
	b.ReportAllocs()
	d, _ := countBenchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := apriori.MineWith(d, 0.1, 1, apriori.CounterTrie); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMineVertical(b *testing.B) {
	b.ReportAllocs()
	d, _ := countBenchData(b)
	apriori.VerticalIndexOf(d, 0) // build outside the timer; memoized thereafter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := apriori.MineWith(d, 0.1, 1, apriori.CounterBitmap); err != nil {
			b.Fatal(err)
		}
	}
}

func randomItemsets(count, universe int, seed int64) []apriori.Itemset {
	rng := rand.New(rand.NewSource(seed))
	out := make([]apriori.Itemset, count)
	for i := range out {
		l := 1 + rng.Intn(3)
		items := make([]txn.Item, l)
		for j := range items {
			items[j] = txn.Item(rng.Intn(universe))
		}
		out[i] = apriori.NewItemset(items...)
	}
	return out
}

// delta (scans both datasets) vs delta* (models only, Theorem 4.2(3)): the
// bound is the paper's answer for interactive exploration (Figure 13's last
// two columns).
func BenchmarkAblationLitsDeviationScan(b *testing.B) {
	b.ReportAllocs()
	d1, d2 := ablationTxnData(b, 10000)
	m1, err := core.MineLits(d1, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	m2, err := core.MineLits(d2, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Deviation(core.Lits(0.01), m1, m2, d1, d2, core.AbsoluteDiff, core.Sum, core.WithParallelism(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// Sharded GCR support counting vs the serial scan above (Fig-13-scale
// lits workload; bit-identical deviations). Compare against
// BenchmarkAblationLitsDeviationScan.
func BenchmarkParallelLitsDeviationScan(b *testing.B) {
	b.ReportAllocs()
	d1, d2 := ablationTxnData(b, 10000)
	m1, err := core.MineLits(d1, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	m2, err := core.MineLits(d2, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Deviation(core.Lits(0.01), m1, m2, d1, d2, core.AbsoluteDiff, core.Sum); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLitsUpperBoundNoScan(b *testing.B) {
	b.ReportAllocs()
	d1, d2 := ablationTxnData(b, 10000)
	m1, err := core.MineLits(d1, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	m2, err := core.MineLits(d2, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.LitsUpperBound(m1, m2, core.Sum)
	}
}

// dt GCR measures by tree-routing (one scan, O(depth) per tuple) vs by
// testing every tuple against every overlay region.
func ablationDTData(b *testing.B) (*focus.Dataset, *focus.Dataset, *core.DTModel, *core.DTModel) {
	b.Helper()
	d1, err := classgen.Generate(classgen.Config{NumTuples: 10000, Function: classgen.F2, Seed: 12})
	if err != nil {
		b.Fatal(err)
	}
	d2, err := classgen.Generate(classgen.Config{NumTuples: 10000, Function: classgen.F3, Seed: 13})
	if err != nil {
		b.Fatal(err)
	}
	m1, err := core.BuildDTModel(d1, ablationDTConfig)
	if err != nil {
		b.Fatal(err)
	}
	m2, err := core.BuildDTModel(d2, ablationDTConfig)
	if err != nil {
		b.Fatal(err)
	}
	return d1, d2, m1, m2
}

var ablationDTConfig = dtree.Config{MaxDepth: 8, MinLeaf: 50}

func BenchmarkAblationDTDeviationRouted(b *testing.B) {
	b.ReportAllocs()
	d1, d2, m1, m2 := ablationDTData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Deviation(core.DT(ablationDTConfig), m1, m2, d1, d2, core.AbsoluteDiff, core.Sum, core.WithParallelism(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// Sharded tree-routing vs the serial routed scan above (Fig-14-scale dt
// workload; bit-identical deviations). Compare against
// BenchmarkAblationDTDeviationRouted.
func BenchmarkParallelDTDeviationRouted(b *testing.B) {
	b.ReportAllocs()
	d1, d2, m1, m2 := ablationDTData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Deviation(core.DT(ablationDTConfig), m1, m2, d1, d2, core.AbsoluteDiff, core.Sum); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDTDeviationGeometric(b *testing.B) {
	b.ReportAllocs()
	d1, d2, m1, m2 := ablationDTData(b)
	gcr, err := core.DTGCRRegions(m1, m2)
	if err != nil {
		b.Fatal(err)
	}
	boxes := make([]*focus.Box, len(gcr))
	for i, r := range gcr {
		boxes[i] = r.Box.ConstrainClass(r.Class)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DTDeviationOverRegions(boxes, d1, d2, core.AbsoluteDiff, core.Sum)
	}
}

// Apriori mining itself, the substrate cost every lits experiment pays.
func BenchmarkAprioriMine(b *testing.B) {
	b.ReportAllocs()
	d, _ := ablationTxnData(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := apriori.MineP(d, 0.01, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// Sharded per-pass candidate counting vs the serial miner above
// (bit-identical frequent sets). Compare against BenchmarkAprioriMine.
func BenchmarkParallelAprioriMine(b *testing.B) {
	b.ReportAllocs()
	d, _ := ablationTxnData(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := apriori.MineP(d, 0.01, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// dtreeBenchData is the paper's synthetic person data at experiment scale,
// the workload of internal/dtree's BenchmarkDTreeBuildNaive and
// BenchmarkDTreeBuildFast pair.
func dtreeBenchData(b *testing.B) *dataset.Dataset {
	b.Helper()
	d, err := classgen.Generate(classgen.Config{NumTuples: 10000, Function: classgen.F2, Seed: 14})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// One dt bootstrap replicate tree: a warm builder grows the tree of a
// half-pool draw (a replicate of D1 from a D1+D2 pool of equal halves)
// over the pool's ranks, on the workload of BenchmarkDTreeBuildFast.
// perfbench's dtree.build_s times only the observed build, so this is
// where a replicate build's own cost shows.
func BenchmarkDTreeBuildSample(b *testing.B) {
	b.ReportAllocs()
	d := dtreeBenchData(b)
	ranks, err := dtree.NewRanks(d, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	rows := make([]int32, d.Len()/2)
	for i := range rows {
		rows[i] = int32(rng.Intn(d.Len()))
	}
	builder := dtree.NewBuilder(ranks)
	if _, err := builder.Build(rows, dtree.Config{MaxDepth: 8, MinLeaf: 50}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := builder.Build(rows, dtree.Config{MaxDepth: 8, MinLeaf: 50}); err != nil {
			b.Fatal(err)
		}
	}
}

// The bootstrap qualification step (Section 3.4), the cost of turning a
// deviation into a significance.
func BenchmarkQualifyLits(b *testing.B) {
	b.ReportAllocs()
	d1, d2 := ablationTxnData(b, 4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Qualify(core.Lits(0.02), d1, d2, core.AbsoluteDiff, core.Sum,
			core.WithReplicates(11), core.WithSeed(15)); err != nil {
			b.Fatal(err)
		}
	}
}

// The dt bootstrap on the classgen F2/F3 pair: each worker's builders grow
// the replicate trees over their distinct drawn rows from the pool's
// ranks, and the GCR overlay is counted from the builds, each distinct row
// routed through the other tree only.
func BenchmarkQualifyDT(b *testing.B) {
	b.ReportAllocs()
	d1, d2, _, _ := ablationDTData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Qualify(core.DT(ablationDTConfig), d1, d2, core.AbsoluteDiff, core.Sum,
			core.WithReplicates(11), core.WithSeed(15)); err != nil {
			b.Fatal(err)
		}
	}
}

var sinkFloat float64

// Baseline: raw deviation arithmetic over a prepared GCR (Definition 3.5),
// isolating the framework overhead from mining/scanning.
func BenchmarkDeviation1Arithmetic(b *testing.B) {
	b.ReportAllocs()
	regions := make([]core.MeasuredRegion, 10000)
	rng := rand.New(rand.NewSource(16))
	for i := range regions {
		regions[i] = core.MeasuredRegion{Alpha1: float64(rng.Intn(1000)), Alpha2: float64(rng.Intn(1000))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFloat = core.Deviation1(regions, 1e6, 1e6, core.AbsoluteDiff, core.Sum)
	}
}
