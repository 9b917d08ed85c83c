package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"focus/internal/classgen"
	"focus/internal/cluster"
	"focus/internal/dataset"
	"focus/internal/dtree"
	"focus/internal/txn"
)

// windowTestBatches returns batches of transactions over the first hot
// items of a numItems-item universe.
func windowTestBatches(seed int64, batches, size, numItems, hot, maxLen int) []*txn.Dataset {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*txn.Dataset, batches)
	for b := range out {
		d := txn.New(numItems)
		for i := 0; i < size; i++ {
			t := make(txn.Transaction, 1+rng.Intn(maxLen))
			for j := range t {
				t[j] = txn.Item(rng.Intn(hot))
			}
			d.Add(t.Normalize())
		}
		out[b] = d
	}
	return out
}

// windowCase runs the one window's bookkeeping checks over one model
// class: batches to feed, and the parts of a model that must match
// between Window.Induce and the class's Induce over Window.Data.
type windowCase[D, M any] struct {
	mc      ModelClass[D, M]
	batches []D // five
	model   func(M) any
	// empty reports a model too trivial for the comparison to show much.
	empty func(M) bool
	// miner reports whether a live window of the class keeps an
	// incremental miner.
	miner bool
}

func (c windowCase[D, M]) run(t *testing.T) {
	w, err := c.mc.NewWindow(1)
	if err != nil {
		t.Fatal(err)
	}
	var live, snapLive []D
	check := func(step string, w *Window[D, M], live []D) {
		t.Helper()
		if w.Batches() != len(live) {
			t.Fatalf("%s: %d batches, want %d", step, w.Batches(), len(live))
		}
		wantN, sum := 0, make([]int, len(w.Counts()))
		for i, d := range w.Parts() {
			if any(d) != any(live[i]) {
				t.Fatalf("%s: batch %d is not the one fed", step, i)
			}
			wantN += c.mc.Len(d)
			counts, err := w.summarize(d, 1)
			if err != nil {
				t.Fatal(err)
			}
			for j, v := range counts {
				sum[j] += v
			}
		}
		if w.N() != wantN {
			t.Errorf("%s: window n=%d, want %d", step, w.N(), wantN)
		}
		if !slices.Equal(w.Counts(), sum) {
			t.Fatalf("%s: summed counts diverged from the live batches'", step)
		}
		if len(live) == 0 {
			return
		}
		got, err := w.Induce()
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.mc.Induce(w.Data(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.model(got), c.model(want)) {
			t.Errorf("%s: window model differs from inducing the window's raw data", step)
		}
	}
	for i, d := range c.batches[:3] {
		if err := w.Add(d, 1); err != nil {
			t.Fatal(err)
		}
		live = append(live, d)
		check(fmt.Sprintf("add %d", i), w, live)
	}
	if m, err := w.Induce(); err != nil || c.empty(m) {
		t.Fatalf("the window's model is empty (%v)", err)
	}
	if m, _ := any(w.tracker).(*litsMiner); (m != nil && m.wm != nil) != c.miner {
		t.Errorf("live window keeps a miner: %v, want %v", !c.miner, c.miner)
	}
	snap := w.Clone()
	snapLive = slices.Clone(live)
	if snap.tracker != nil {
		t.Error("the clone carries the origin's class-owned state")
	}
	w.RemoveFront()
	live = live[1:]
	check("remove", w, live)
	check("clone after origin remove", snap, snapLive)
	if err := w.Add(c.batches[3], 1); err != nil {
		t.Fatal(err)
	}
	live = append(live, c.batches[3])
	check("origin advance", w, live)
	check("clone after origin advance", snap, snapLive)
	snap.RemoveFront()
	snapLive = snapLive[1:]
	check("clone remove", snap, snapLive)
	if err := snap.Add(c.batches[4], 1); err != nil {
		t.Fatal(err)
	}
	snapLive = append(snapLive, c.batches[4])
	check("clone advance", snap, snapLive)
	check("origin after clone advance", w, live)
	for w.Batches() > 0 {
		w.RemoveFront()
		live = live[1:]
		check("drain", w, live)
	}
	check("clone after origin drain", snap, snapLive)
}

// TestLitsWindowAggregates pins the one window's bookkeeping for lits
// (see windowCase): over a 20-item universe, where the live window mines
// through its WindowMiner, and a 6,000-item one, where it mines through
// MineConcat.
func TestLitsWindowAggregates(t *testing.T) {
	lits := func(m *LitsModel) any { return []any{m.FS.MinSupport, m.FS.N, m.FS.Itemsets, m.FS.Counts} }
	litsEmpty := func(m *LitsModel) bool { return m.Len() < 20 }
	t.Run("lits-20", windowCase[*txn.Dataset, *LitsModel]{
		mc: Lits(0.08), batches: windowTestBatches(95, 5, 30, 20, 20, 6), model: lits, empty: litsEmpty, miner: true,
	}.run)
	t.Run("lits-6000", windowCase[*txn.Dataset, *LitsModel]{
		mc: Lits(0.08), batches: windowTestBatches(95, 5, 30, 6000, 20, 6), model: lits, empty: litsEmpty,
	}.run)
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
	batches := windowTestBatches(96, 3, 25, numItems, numItems, 5)
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

// TestWindowAggregates runs the same bookkeeping checks (see windowCase)
// for the other classes that stream: pinned-tree dt and cluster.
func TestWindowAggregates(t *testing.T) {
	train, err := classgen.Generate(classgen.Config{NumTuples: 1200, Function: classgen.F2, Seed: 97})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := dtree.Build(train, dtree.Config{MaxDepth: 5, MinLeaf: 40})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := cluster.NewGrid(train.Schema, []int{classgen.AttrSalary, classgen.AttrAge}, 6)
	if err != nil {
		t.Fatal(err)
	}
	var tuples []*dataset.Dataset
	for i, fn := range []classgen.Function{classgen.F1, classgen.F2, classgen.F3, classgen.F2, classgen.F4} {
		d, err := classgen.Generate(classgen.Config{NumTuples: 150 + 40*i, Function: fn, Seed: int64(98 + i)})
		if err != nil {
			t.Fatal(err)
		}
		tuples = append(tuples, d)
	}
	t.Run("dt-pinned", windowCase[*dataset.Dataset, *DTMeasures]{
		mc: PinnedDT(tree), batches: tuples,
		model: func(m *DTMeasures) any { return []any{m.Tree, m.Cells, m.N} },
		empty: func(m *DTMeasures) bool { return m.N == 0 },
	}.run)
	t.Run("cluster", windowCase[*dataset.Dataset, *ClusterModel]{
		mc: Cluster(grid, 0.05), batches: tuples,
		model: func(m *ClusterModel) any { return m.M },
		empty: func(m *ClusterModel) bool { return m.M.NumClusters == 0 },
	}.run)
}

// MeasureGCRWindows takes supports from the models, so a model induced
// from other data than its window is refused rather than measured.
func TestLitsMeasureGCRWindowsStaleModel(t *testing.T) {
	mc := Lits(0.1)
	batches := windowTestBatches(97, 3, 25, 15, 15, 5)
	w1, err := mc.NewWindow(1)
	if err != nil {
		t.Fatal(err)
	}
	w2 := w1.Clone()
	for _, step := range []struct {
		w *Window[*txn.Dataset, *LitsModel]
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
