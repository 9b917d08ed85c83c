package focus_test

// End-to-end tests of the public facade: a downstream user's view of the
// library, exercising every exported entry point at least once.

import (
	"math"
	"math/rand"
	"testing"

	"focus"
	"focus/internal/classgen"
	"focus/internal/quest"
	"focus/internal/txn"
)

func facadeTxnData(t *testing.T) (*focus.TxnDataset, *focus.TxnDataset, *focus.TxnDataset) {
	t.Helper()
	cfg := quest.DefaultConfig(2500)
	cfg.NumItems = 300
	cfg.NumPatterns = 200
	cfg.AvgTxnLen = 8
	cfg.Seed = 1
	g, err := quest.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d1 := g.GenerateN(2500)
	d2 := g.GenerateN(2500) // same process
	changed := cfg
	changed.AvgPatternLen = 8
	changed.Seed = 2
	d3, err := quest.Generate(changed) // different process
	if err != nil {
		t.Fatal(err)
	}
	return d1, d2, d3
}

func TestFacadeLitsWorkflow(t *testing.T) {
	d1, d2, d3 := facadeTxnData(t)
	const ms = 0.03
	m1, err := focus.MineLits(d1, ms)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := focus.MineLits(d2, ms)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := focus.MineLits(d3, ms)
	if err != nil {
		t.Fatal(err)
	}
	devSame, err := focus.Deviation(focus.Lits(ms), m1, m2, d1, d2, focus.AbsoluteDiff, focus.Sum)
	if err != nil {
		t.Fatal(err)
	}
	devChanged, err := focus.Deviation(focus.Lits(ms), m1, m3, d1, d3, focus.AbsoluteDiff, focus.Sum)
	if err != nil {
		t.Fatal(err)
	}
	if devSame >= devChanged {
		t.Errorf("same-process deviation %v >= changed %v", devSame, devChanged)
	}
	// Upper bound dominates (Theorem 4.2).
	if b := focus.LitsUpperBound(m1, m3, focus.Sum); b < devChanged {
		t.Errorf("delta* %v < delta %v", b, devChanged)
	}
	// Qualification separates the two cases.
	qSame, err := focus.Qualify(focus.Lits(ms), d1, d2, focus.AbsoluteDiff, focus.Sum, focus.WithReplicates(19), focus.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	qChanged, err := focus.Qualify(focus.Lits(ms), d1, d3, focus.AbsoluteDiff, focus.Sum, focus.WithReplicates(19), focus.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if qChanged.Significance < qSame.Significance {
		t.Errorf("changed-process significance %v < same-process %v", qChanged.Significance, qSame.Significance)
	}
	// Operators: union + rank + top.
	gcr := focus.ItemsetUnion(m1.FS.Itemsets, m3.FS.Itemsets)
	ranked := focus.RankItemsets(gcr, d1, d3, focus.AbsoluteDiff)
	top := focus.TopItemsets(ranked, 5)
	if len(top) == 0 || top[0].Deviation <= 0 {
		t.Error("ranking produced no changed itemsets")
	}
}

func TestFacadeDTWorkflow(t *testing.T) {
	d1, err := classgen.Generate(classgen.Config{NumTuples: 3000, Function: classgen.F1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := classgen.Generate(classgen.Config{NumTuples: 3000, Function: classgen.F2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	cfg := focus.TreeConfig{MaxDepth: 6, MinLeaf: 25}
	m1, err := focus.BuildDTModel(d1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := focus.BuildDTModel(d2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := focus.Deviation(focus.DT(cfg), m1, m2, d1, d2, focus.AbsoluteDiff, focus.Sum)
	if err != nil {
		t.Fatal(err)
	}
	if dev <= 0 {
		t.Error("deviation between different processes is 0")
	}
	gcr, err := focus.DTGCRRegions(m1, m2)
	if err != nil {
		t.Fatal(err)
	}
	if len(gcr) < 4 {
		t.Errorf("GCR has only %d regions", len(gcr))
	}
	// Focussed deviation over young customers only.
	schema := classgen.Schema()
	young := focus.FullRegion(schema).ConstrainUpper(classgen.AttrAge, 40)
	focussed, err := focus.Deviation(focus.DT(cfg), m1, m2, d1, d2, focus.AbsoluteDiff, focus.Sum, focus.WithFocus(young))
	if err != nil {
		t.Fatal(err)
	}
	if focussed < 0 || focussed > dev+1e-9 {
		// Age 40 is an F1/F2 predicate boundary, so GCR regions rarely
		// straddle it; the focussed value must not exceed the whole.
		t.Errorf("focussed deviation %v outside [0, %v]", focussed, dev)
	}
	// Monitoring: ME and chi-squared.
	me, err := focus.MisclassificationViaFOCUS(m1.Tree, d2)
	if err != nil {
		t.Fatal(err)
	}
	if direct := m1.Tree.MisclassificationError(d2); math.Abs(me-direct) > 1e-12 {
		t.Errorf("facade ME %v != direct %v", me, direct)
	}
	if _, err := focus.ChiSquared(m1.Tree, d1, d2, 0.5); err != nil {
		t.Fatal(err)
	}
	res, err := focus.ChiSquaredBootstrapTest(m1.Tree, cfg, d1, d2, 0.5, 19, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 0.2 {
		t.Errorf("different processes fit the old model: p = %v", res.PValue)
	}
	// Qualification.
	q, err := focus.Qualify(focus.DT(cfg), d1, d2, focus.AbsoluteDiff, focus.Sum, focus.WithReplicates(19), focus.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if q.Significance < 90 {
		t.Errorf("dt significance = %v, want high", q.Significance)
	}
}

func TestFacadeClusterWorkflow(t *testing.T) {
	s := classgen.Schema()
	// Cluster the (age, salary) plane of two classgen datasets.
	d1, err := classgen.Generate(classgen.Config{NumTuples: 4000, Function: classgen.F1, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := classgen.Generate(classgen.Config{NumTuples: 4000, Function: classgen.F1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	g, err := focus.NewGrid(s, []int{classgen.AttrSalary, classgen.AttrAge}, 6)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := focus.BuildClusterModel(d1, g, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := focus.BuildClusterModel(d2, g, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := focus.Deviation(focus.Cluster(g, 0.005), m1, m2, d1, d2, focus.AbsoluteDiff, focus.Sum)
	if err != nil {
		t.Fatal(err)
	}
	// Same-process uniform data: clusters agree up to sampling noise.
	if dev > 0.5 {
		t.Errorf("same-process cluster deviation = %v, want small", dev)
	}
}

func TestFacadeRegionOperators(t *testing.T) {
	s := classgen.Schema()
	young := focus.FullRegion(s).ConstrainUpper(classgen.AttrAge, 40)
	old := focus.FullRegion(s).ConstrainLower(classgen.AttrAge, 40)
	mid := focus.FullRegion(s).ConstrainLower(classgen.AttrAge, 30).ConstrainUpper(classgen.AttrAge, 60)

	p1 := []*focus.Box{young, old}
	p2 := []*focus.Box{mid}
	overlay := focus.StructuralUnion(p1, p2)
	if len(overlay) != 2 {
		t.Errorf("overlay of 2-partition with band = %d regions, want 2", len(overlay))
	}
	if len(focus.StructuralIntersection(p1, p1)) != 2 {
		t.Error("self intersection wrong")
	}
	if len(focus.StructuralDifference(p1, p1)) != 0 {
		t.Error("self difference wrong")
	}

	d1, _ := classgen.Generate(classgen.Config{NumTuples: 2000, Function: classgen.F1, Seed: 12})
	d2, _ := classgen.Generate(classgen.Config{NumTuples: 2000, Function: classgen.F1, Seed: 13})
	ranked := focus.Rank(p1, d1, d2, focus.AbsoluteDiff)
	if len(focus.Top(ranked, 1)) != 1 {
		t.Error("Top(1) wrong")
	}
}

func TestFacadeScaledDiffAndMax(t *testing.T) {
	d1, _, d3 := facadeTxnData(t)
	m1, _ := focus.MineLits(d1, 0.03)
	m3, _ := focus.MineLits(d3, 0.03)
	devMax, err := focus.Deviation(focus.Lits(0.03), m1, m3, d1, d3, focus.AbsoluteDiff, focus.Max)
	if err != nil {
		t.Fatal(err)
	}
	devSum, err := focus.Deviation(focus.Lits(0.03), m1, m3, d1, d3, focus.AbsoluteDiff, focus.Sum)
	if err != nil {
		t.Fatal(err)
	}
	if devMax > devSum {
		t.Errorf("max aggregate %v exceeds sum %v", devMax, devSum)
	}
	if _, err := focus.Deviation(focus.Lits(0.03), m1, m3, d1, d3, focus.ScaledDiff, focus.Sum); err != nil {
		t.Fatal(err)
	}
	f := focus.ChiSquaredDiff(0.5)
	if f(0, 10, 100, 100) != 0.5 {
		t.Error("ChiSquaredDiff constant wrong")
	}
}

func TestFacadeFocusPredicate(t *testing.T) {
	d1, _, d3 := facadeTxnData(t)
	m1, _ := focus.MineLits(d1, 0.03)
	m3, _ := focus.MineLits(d3, 0.03)
	// Focus on itemsets within the first 150 items.
	var family []focus.Item
	for i := focus.Item(0); i < 150; i++ {
		family = append(family, i)
	}
	in := make(map[focus.Item]bool)
	for _, it := range family {
		in[it] = true
	}
	keep := func(s focus.Itemset) bool {
		for _, it := range s {
			if !in[it] {
				return false
			}
		}
		return true
	}
	focussed, err := focus.Deviation(focus.Lits(0.03), m1, m3, d1, d3, focus.AbsoluteDiff, focus.Sum, focus.WithFocusItemsets(keep))
	if err != nil {
		t.Fatal(err)
	}
	full, err := focus.Deviation(focus.Lits(0.03), m1, m3, d1, d3, focus.AbsoluteDiff, focus.Sum)
	if err != nil {
		t.Fatal(err)
	}
	if focussed > full {
		t.Errorf("focussed %v > full %v", focussed, full)
	}
}

func TestFacadeTransactionTypes(t *testing.T) {
	// The facade's type aliases interoperate with the internal packages.
	d := txn.New(10)
	d.Add(focus.Transaction{1, 2, 3})
	var ds *focus.TxnDataset = d
	if ds.Len() != 1 {
		t.Error("alias interop broken")
	}
	rng := rand.New(rand.NewSource(1))
	if ds.Sample(1, rng).Len() != 1 {
		t.Error("sampling through alias broken")
	}
}

func TestFacadeMonitorWorkflow(t *testing.T) {
	// A downstream user's monitoring loop: pin a model on last quarter's
	// data, stream batches through a sliding window, alert on drift.
	old, err := classgen.Generate(classgen.Config{NumTuples: 4000, Function: classgen.F1, Seed: 70})
	if err != nil {
		t.Fatal(err)
	}
	model, err := focus.BuildDTModel(old, focus.TreeConfig{MaxDepth: 6, MinLeaf: 30})
	if err != nil {
		t.Fatal(err)
	}
	alerts := 0
	mon, err := focus.NewMonitor(focus.PinnedDT(model.Tree), old,
		focus.WithWindow(2), focus.WithThreshold(0.2),
		focus.WithAlert(func(focus.MonitorReport) { alerts++ }))
	if err != nil {
		t.Fatal(err)
	}
	var last *focus.MonitorReport
	for i, fn := range []classgen.Function{classgen.F1, classgen.F1, classgen.F3} {
		batch, err := classgen.Generate(classgen.Config{NumTuples: 800, Function: fn, Seed: 71 + int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		last, err = mon.Ingest(batch)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last == nil || !last.Alert || alerts == 0 {
		t.Fatalf("drift batch did not alert: %+v (alerts=%d)", last, alerts)
	}
	if mon.Reports() != 3 || mon.Last().Seq != 2 {
		t.Errorf("Reports=%d Last.Seq=%d", mon.Reports(), mon.Last().Seq)
	}

	// Lits and cluster monitors through the facade.
	d1, d2, d3 := facadeTxnData(t)
	lm, err := focus.NewMonitor(focus.Lits(0.03), d1,
		focus.WithWindow(1), focus.WithQualification(),
		focus.WithReplicates(19), focus.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	repSame, err := lm.Ingest(d2)
	if err != nil {
		t.Fatal(err)
	}
	repChanged, err := lm.Ingest(d3)
	if err != nil {
		t.Fatal(err)
	}
	if repSame.Deviation >= repChanged.Deviation {
		t.Errorf("lits monitor: same-process deviation %v >= changed %v", repSame.Deviation, repChanged.Deviation)
	}
	if repSame.Qual == nil || repChanged.Qual == nil {
		t.Fatal("qualification missing from lits monitor reports")
	}
	if repSame.Qual.Significance >= repChanged.Qual.Significance {
		t.Errorf("lits monitor: same-process significance %v >= changed %v",
			repSame.Qual.Significance, repChanged.Qual.Significance)
	}

	schema := classgen.Schema()
	grid, err := focus.NewGrid(schema, []int{classgen.AttrSalary, classgen.AttrAge}, 6)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := focus.NewMonitor(focus.Cluster(grid, 0.02), old,
		focus.WithWindow(2), focus.WithFunctions(focus.ScaledDiff, focus.Max))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := classgen.Generate(classgen.Config{NumTuples: 900, Function: classgen.F1, Seed: 75})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cm.Ingest(batch)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Deviation < 0 {
		t.Fatalf("cluster monitor report: %+v", rep)
	}
}

// Helpers of the cross-configuration equivalence tests below.

type fgCase struct {
	name string
	f    focus.DiffFunc
	g    focus.AggFunc
}

func fgCases() []fgCase {
	return []fgCase{
		{"fa-sum", focus.AbsoluteDiff, focus.Sum},
		{"fa-max", focus.AbsoluteDiff, focus.Max},
		{"fs-sum", focus.ScaledDiff, focus.Sum},
		{"fs-max", focus.ScaledDiff, focus.Max},
	}
}

var parCases = []int{1, 4}

func classData(t *testing.T, n int, fn classgen.Function, seed int64) *focus.Dataset {
	t.Helper()
	d, err := classgen.Generate(classgen.Config{NumTuples: n, Function: fn, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func qualEqual(t *testing.T, name string, a, b focus.Qualification) {
	t.Helper()
	if a.Deviation != b.Deviation || a.Significance != b.Significance {
		t.Errorf("%s: (%v, %v%%) != (%v, %v%%)",
			name, a.Deviation, a.Significance, b.Deviation, b.Significance)
	}
	if len(a.Null) != len(b.Null) {
		t.Fatalf("%s: null sizes %d != %d", name, len(a.Null), len(b.Null))
	}
	for i := range a.Null {
		if a.Null[i] != b.Null[i] {
			t.Fatalf("%s: null[%d] %v != %v", name, i, a.Null[i], b.Null[i])
		}
	}
}

// Cluster qualification must be deterministic, parallelism-invariant, and
// consistent with Deviation.
func TestClusterQualification(t *testing.T) {
	d1 := classData(t, 2000, classgen.F1, 307)
	d2 := classData(t, 1800, classgen.F3, 308)
	grid, err := focus.NewGrid(classgen.Schema(), []int{classgen.AttrSalary, classgen.AttrAge}, 5)
	if err != nil {
		t.Fatal(err)
	}
	cl := focus.Cluster(grid, 0.01)
	q1, err := focus.Qualify(cl, d1, d2, focus.AbsoluteDiff, focus.Sum,
		focus.WithReplicates(19), focus.WithSeed(11), focus.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	q4, err := focus.Qualify(cl, d1, d2, focus.AbsoluteDiff, focus.Sum,
		focus.WithReplicates(19), focus.WithSeed(11), focus.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	qualEqual(t, "cluster par1-vs-par4", q1, q4)
	m1, err := cl.Induce(d1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := cl.Induce(d2, 1)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := focus.Deviation(cl, m1, m2, d1, d2, focus.AbsoluteDiff, focus.Sum)
	if err != nil {
		t.Fatal(err)
	}
	if q1.Deviation != dev {
		t.Errorf("qualified deviation %v != Deviation %v", q1.Deviation, dev)
	}
	if q1.Significance < 0 || q1.Significance > 100 {
		t.Errorf("significance %v outside [0,100]", q1.Significance)
	}
}

// The counting-backend contract of the vertical-bitmap refactor: every
// lits pipeline — batch deviation, bootstrap qualification, incremental
// monitoring — produces bit-identical (==, not approximately equal)
// results whether itemset supports come from the trie subset scan or from
// the vertical TID-bitmap index, across f/g and parallelism. CI runs this
// sweep under -race, which also exercises the memoized index build from
// concurrent counting workers.

// TestCounterEquivalenceDeviation mines and measures through each forced
// backend end to end and requires identical models and deviations.
func TestCounterEquivalenceDeviation(t *testing.T) {
	d1, _, d3 := facadeTxnData(t)
	const ms = 0.03
	for _, fg := range fgCases() {
		for _, par := range parCases {
			devs := make([]float64, 0, 2)
			lens := make([]int, 0, 2)
			for _, c := range []focus.Counter{focus.CounterTrie, focus.CounterBitmap} {
				mc := focus.LitsWithCounter(ms, c)
				m1, err := mc.Induce(d1, par)
				if err != nil {
					t.Fatal(err)
				}
				m3, err := mc.Induce(d3, par)
				if err != nil {
					t.Fatal(err)
				}
				dev, err := focus.Deviation(mc, m1, m3, d1, d3, fg.f, fg.g, focus.WithParallelism(par))
				if err != nil {
					t.Fatal(err)
				}
				devs = append(devs, dev)
				lens = append(lens, m1.Len()+m3.Len())
			}
			if lens[0] != lens[1] {
				t.Errorf("%s/par%d: trie mined %d itemsets, bitmap %d", fg.name, par, lens[0], lens[1])
			}
			if devs[0] != devs[1] {
				t.Errorf("%s/par%d: trie deviation %v != bitmap %v", fg.name, par, devs[0], devs[1])
			}
		}
	}
}

// TestCounterEquivalenceQualify runs the full bootstrap through each
// backend: observed deviation, significance and the whole null
// distribution must match exactly.
func TestCounterEquivalenceQualify(t *testing.T) {
	d1, _, d3 := facadeTxnData(t)
	const ms = 0.03
	for _, fg := range fgCases() {
		for _, par := range parCases {
			trie, err := focus.Qualify(focus.LitsWithCounter(ms, focus.CounterTrie), d1, d3, fg.f, fg.g,
				focus.WithReplicates(19), focus.WithSeed(13), focus.WithParallelism(par))
			if err != nil {
				t.Fatal(err)
			}
			bitmap, err := focus.Qualify(focus.LitsWithCounter(ms, focus.CounterBitmap), d1, d3, fg.f, fg.g,
				focus.WithReplicates(19), focus.WithSeed(13), focus.WithParallelism(par))
			if err != nil {
				t.Fatal(err)
			}
			qualEqual(t, "counter-"+fg.name, trie, bitmap)
		}
	}
}

// TestCounterEquivalenceMonitor replays one batch stream through a trie
// monitor and a bitmap monitor (window advance, expiry, alerts,
// qualification) and requires identical reports at every step.
func TestCounterEquivalenceMonitor(t *testing.T) {
	d1, d2, d3 := facadeTxnData(t)
	const ms = 0.03
	for _, fg := range fgCases() {
		for _, par := range parCases {
			// Bootstrap qualification on every emission is the expensive
			// path; sweeping it once per parallelism keeps the suite quick
			// while the threshold/alert machinery runs for every f/g.
			opts := focus.Config{
				WindowBatches: 2, Threshold: 0.1, F: fg.f, G: fg.g,
				Qualify: fg.name == "fa-sum", Replicates: 19, Seed: 17, Parallelism: par,
			}
			trieMon, err := focus.NewMonitor(focus.LitsWithCounter(ms, focus.CounterTrie), d1, focus.WithConfig(opts))
			if err != nil {
				t.Fatal(err)
			}
			bitmapMon, err := focus.NewMonitor(focus.LitsWithCounter(ms, focus.CounterBitmap), d1, focus.WithConfig(opts))
			if err != nil {
				t.Fatal(err)
			}
			emitted := false
			for _, batch := range [][]focus.Transaction{
				d2.Txns[:800], d3.Txns[:800], d2.Txns[800:1600], d3.Txns[800:1600],
			} {
				trieRep, err := trieMon.Ingest(focus.FromTransactions(d1.NumItems, batch))
				if err != nil {
					t.Fatal(err)
				}
				bitmapRep, err := bitmapMon.Ingest(focus.FromTransactions(d1.NumItems, batch))
				if err != nil {
					t.Fatal(err)
				}
				reportsEqual(t, "counter-"+fg.name, trieRep, bitmapRep)
				emitted = emitted || trieRep != nil
			}
			if !emitted {
				t.Fatal("monitors emitted nothing")
			}
		}
	}
}

func reportsEqual(t *testing.T, name string, a, b *focus.MonitorReport) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: emitted=%v vs %v", name, a != nil, b != nil)
	}
	if a == nil {
		return
	}
	if a.Seq != b.Seq || a.Epoch != b.Epoch || a.Batches != b.Batches ||
		a.N != b.N || a.RefN != b.RefN || a.Regions != b.Regions ||
		a.Deviation != b.Deviation || a.Alert != b.Alert {
		t.Errorf("%s: report %+v != %+v", name, a, b)
	}
	if (a.Qual == nil) != (b.Qual == nil) {
		t.Fatalf("%s: qualification presence differs", name)
	}
	if a.Qual != nil && (a.Qual.Deviation != b.Qual.Deviation || a.Qual.Significance != b.Qual.Significance) {
		t.Errorf("%s: qual (%v, %v%%) != (%v, %v%%)",
			name, a.Qual.Deviation, a.Qual.Significance, b.Qual.Deviation, b.Qual.Significance)
	}
}
