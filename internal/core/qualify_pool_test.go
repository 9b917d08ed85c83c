package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"focus/internal/cluster"
	"focus/internal/dtree"
	"focus/internal/quest"
	"focus/internal/region"
	"focus/internal/txn"
)

// sameQualificationBits compares two qualifications bit for bit.
func sameQualificationBits(a, b Qualification) bool {
	if math.Float64bits(a.Deviation) != math.Float64bits(b.Deviation) ||
		math.Float64bits(a.Significance) != math.Float64bits(b.Significance) || len(a.Null) != len(b.Null) {
		return false
	}
	for i := range a.Null {
		if math.Float64bits(a.Null[i]) != math.Float64bits(b.Null[i]) {
			return false
		}
	}
	return true
}

// qualifyAcross runs Qualify at parallelism 1, 2, 3 and 8 and fails unless
// every qualification is bit-identical to the serial one.
func qualifyAcross[D, M any](t *testing.T, mc ModelClass[D, M], d1, d2 D, opts ...Option) {
	t.Helper()
	var serial Qualification
	for _, p := range []int{1, 2, 3, 8} {
		got, err := Qualify(mc, d1, d2, AbsoluteDiff, Sum,
			append([]Option{WithReplicates(11), WithSeed(71), WithParallelism(p)}, opts...)...)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if p == 1 {
			serial = got
			continue
		}
		if !sameQualificationBits(got, serial) {
			t.Errorf("parallelism %d: (dev %v, sig %v, null %v) differs from serial (%v, %v, %v)",
				p, got.Deviation, got.Significance, got.Null, serial.Deviation, serial.Significance, serial.Null)
		}
	}
}

// TestQualifyPoolEquivalence pins Qualify's observed path running as the
// first task of the bootstrap pool: for every model class, in plain,
// Extension and focused modes, the qualification is bit-identical at every
// worker count (run with -race).
func TestQualifyPoolEquivalence(t *testing.T) {
	qcfg := quest.DefaultConfig(900)
	qcfg.NumItems, qcfg.NumPatterns, qcfg.AvgTxnLen, qcfg.Seed = 150, 60, 6, 72
	l1, err := quest.Generate(qcfg)
	if err != nil {
		t.Fatal(err)
	}
	qcfg.AvgPatternLen, qcfg.Seed = 5, 73
	l2, err := quest.Generate(qcfg)
	if err != nil {
		t.Fatal(err)
	}
	lExt, err := l1.Concat(l1.Resample(100, rand.New(rand.NewSource(74))))
	if err != nil {
		t.Fatal(err)
	}
	family := make([]txn.Item, 0, 75)
	for it := txn.Item(0); it < 75; it++ {
		family = append(family, it)
	}

	rng := rand.New(rand.NewSource(75))
	c1 := randomDTDataset(rng, 900)
	c2 := randomDTDataset(rng, 1000)
	cExt, err := c1.Concat(c1.Resample(120, rng))
	if err != nil {
		t.Fatal(err)
	}
	s := c1.Schema
	focus := region.Full(s).ConstrainUpper(s.AttrIndex("x"), 0.6)
	grid, err := cluster.NewGrid(s, []int{0, 1}, 6)
	if err != nil {
		t.Fatal(err)
	}
	dt := DT(dtree.Config{MaxDepth: 5, MinLeaf: 20})
	cl := Cluster(grid, 0.02)

	t.Run("lits", func(t *testing.T) { qualifyAcross(t, Lits(0.04), l1, l2) })
	t.Run("lits-extension", func(t *testing.T) { qualifyAcross(t, Lits(0.04), l1, lExt, WithExtension()) })
	t.Run("lits-focus", func(t *testing.T) {
		qualifyAcross(t, Lits(0.04), l1, l2, WithFocusItemsets(WithinItems(family)))
	})
	t.Run("dt", func(t *testing.T) { qualifyAcross(t, dt, c1, c2) })
	t.Run("dt-extension", func(t *testing.T) { qualifyAcross(t, dt, c1, cExt, WithExtension()) })
	t.Run("dt-focus", func(t *testing.T) { qualifyAcross(t, dt, c1, c2, WithFocus(focus)) })
	t.Run("cluster", func(t *testing.T) { qualifyAcross(t, cl, c1, c2) })
	t.Run("cluster-extension", func(t *testing.T) { qualifyAcross(t, cl, c1, cExt, WithExtension()) })
	t.Run("cluster-focus", func(t *testing.T) { qualifyAcross(t, cl, c1, c2, WithFocus(focus)) })
}

// TestQualifyPoolObservedErrorWins: when the observed path fails, Qualify
// returns its error at every worker count, although the replicates the
// pool already started fail too.
func TestQualifyPoolObservedErrorWins(t *testing.T) {
	qcfg := quest.DefaultConfig(300)
	qcfg.NumItems, qcfg.NumPatterns, qcfg.Seed = 100, 40, 76
	l, err := quest.Generate(qcfg)
	if err != nil {
		t.Fatal(err)
	}
	c := randomDTDataset(rand.New(rand.NewSource(77)), 300)
	for _, p := range []int{1, 2, 3, 8} {
		_, err := Qualify(Lits(0), l, l, AbsoluteDiff, Sum, WithReplicates(9), WithParallelism(p))
		if err == nil || !strings.Contains(err.Error(), "minimum support 0 outside (0,1]") {
			t.Errorf("lits, parallelism %d: err = %v, want the minimum support error", p, err)
		}
		_, err = Qualify(Cluster(nil, 0.02), c, c, AbsoluteDiff, Sum, WithReplicates(9), WithParallelism(p))
		if err != errNilGrid {
			t.Errorf("cluster, parallelism %d: err = %v, want %v", p, err, errNilGrid)
		}
		// A failing pool set-up still reports the observed path's error
		// first, and its own otherwise.
		_, err = Qualify(Lits(0), l, l.Resample(200, rand.New(rand.NewSource(1))), AbsoluteDiff, Sum,
			WithReplicates(9), WithParallelism(p), WithExtension())
		if err == nil || !strings.Contains(err.Error(), "minimum support") {
			t.Errorf("lits extension, parallelism %d: err = %v, want the minimum support error", p, err)
		}
		_, err = Qualify(Lits(0.1), l, l.Resample(200, rand.New(rand.NewSource(1))), AbsoluteDiff, Sum,
			WithReplicates(9), WithParallelism(p), WithExtension())
		if err == nil || !strings.Contains(err.Error(), "Extension qualification requires") {
			t.Errorf("lits extension, parallelism %d: err = %v, want the Extension size error", p, err)
		}
	}
}
