package core

import (
	"testing"

	"focus/internal/apriori"
	"focus/internal/quest"
	"focus/internal/txn"
)

// trieLits is the lits class forced onto the trie/levelwise path: the
// reference every vertical-engine pipeline must match bit for bit. It
// mines levelwise Apriori through the trie, counts the GCR through the
// trie, and — embedding the ModelClass interface, which promotes only its
// methods — hides litsClass's bootstrapper fast path, so Qualify over it
// runs the generic Resample/Induce/MeasureGCR replicate.
type trieLits struct {
	ModelClass[*txn.Dataset, *LitsModel]
	minSupport float64
}

func newTrieLits(minSupport float64) trieLits {
	return trieLits{Lits(minSupport), minSupport}
}

func (c trieLits) Induce(d *txn.Dataset, parallelism int) (*LitsModel, error) {
	fs, err := apriori.MineWith(d, c.minSupport, parallelism, apriori.CounterTrie)
	if err != nil {
		return nil, err
	}
	return &LitsModel{FS: fs}, nil
}

func (trieLits) MeasureGCR(m1, m2 *LitsModel, d1, d2 *txn.Dataset, cfg *Config) ([]MeasuredRegion, error) {
	gcr := newLitsGCR(m1.FS, m2.FS)
	gcr.focus(cfg.FocusItemsets)
	c1 := apriori.CountItemsetsC(d1, gcr.sets, cfg.Parallelism, apriori.CounterTrie)
	c2 := apriori.CountItemsetsC(d2, gcr.sets, cfg.Parallelism, apriori.CounterTrie)
	return countRegions(c1, c2), nil
}

// trieEquivData returns two Quest datasets over one 300-item universe
// drawn from different generating processes.
func trieEquivData(t *testing.T) (*txn.Dataset, *txn.Dataset) {
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
	changed := cfg
	changed.AvgPatternLen = 8
	changed.Seed = 2
	d3, err := quest.Generate(changed)
	if err != nil {
		t.Fatal(err)
	}
	return d1, d3
}

// The lits engine's one decision must be invisible: every pipeline
// produces bit-identical (==, not approximately equal) results through
// Lits, which runs the vertical engine, and through the trie reference,
// across f/g and parallelism. CI runs these under -race, which also
// exercises the memoized index build from concurrent counting workers.

// TestLitsTrieEquivalenceDeviation mines and measures through both
// classes end to end and requires identical models and deviations.
func TestLitsTrieEquivalenceDeviation(t *testing.T) {
	d1, d3 := trieEquivData(t)
	const ms = 0.03
	for _, fg := range invariantFG() {
		for _, par := range []int{1, 4} {
			devs := make([]float64, 0, 2)
			lens := make([]int, 0, 2)
			for _, mc := range []ModelClass[*txn.Dataset, *LitsModel]{newTrieLits(ms), Lits(ms)} {
				m1, err := mc.Induce(d1, par)
				if err != nil {
					t.Fatal(err)
				}
				m3, err := mc.Induce(d3, par)
				if err != nil {
					t.Fatal(err)
				}
				dev, err := Deviation(mc, m1, m3, d1, d3, fg.f, fg.g, WithParallelism(par))
				if err != nil {
					t.Fatal(err)
				}
				devs = append(devs, dev)
				lens = append(lens, m1.Len()+m3.Len())
			}
			if lens[0] != lens[1] {
				t.Errorf("%s/par%d: trie mined %d itemsets, engine %d", fg.name, par, lens[0], lens[1])
			}
			if devs[0] != devs[1] {
				t.Errorf("%s/par%d: trie deviation %v != engine %v", fg.name, par, devs[0], devs[1])
			}
		}
	}
}

// TestLitsTrieEquivalenceQualify runs the full bootstrap through both
// classes: observed deviation, significance and the whole null
// distribution must match exactly.
func TestLitsTrieEquivalenceQualify(t *testing.T) {
	d1, d3 := trieEquivData(t)
	const ms = 0.03
	for _, fg := range invariantFG() {
		for _, par := range []int{1, 4} {
			opts := []Option{WithReplicates(19), WithSeed(13), WithParallelism(par)}
			trie, err := Qualify[*txn.Dataset, *LitsModel](newTrieLits(ms), d1, d3, fg.f, fg.g, opts...)
			if err != nil {
				t.Fatal(err)
			}
			engine, err := Qualify(Lits(ms), d1, d3, fg.f, fg.g, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if trie.Deviation != engine.Deviation || trie.Significance != engine.Significance {
				t.Errorf("%s/par%d: trie (%v, %v%%) != engine (%v, %v%%)", fg.name, par,
					trie.Deviation, trie.Significance, engine.Deviation, engine.Significance)
			}
			if len(trie.Null) != len(engine.Null) {
				t.Fatalf("%s/par%d: null sizes %d != %d", fg.name, par, len(trie.Null), len(engine.Null))
			}
			for i := range trie.Null {
				if trie.Null[i] != engine.Null[i] {
					t.Fatalf("%s/par%d: null[%d] %v != %v", fg.name, par, i, trie.Null[i], engine.Null[i])
				}
			}
		}
	}
}
