package core

import (
	"math/rand"
	"sort"
	"testing"

	"focus/internal/apriori"
)

// gcrOracle is the GCR construction the linear merge replaces: a union
// through a string-keyed map, then a comparison sort.
func gcrOracle(fs1, fs2 *apriori.FrequentSet) []apriori.Itemset {
	seen := make(map[string]bool)
	var out []apriori.Itemset
	for _, fs := range []*apriori.FrequentSet{fs1, fs2} {
		for _, s := range fs.Itemsets {
			if k := s.Key(); !seen[k] {
				seen[k] = true
				out = append(out, s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// frequentSet builds a hand-made FrequentSet whose count of each itemset is
// its position, so a merge index can be checked through the count.
func frequentSet(sets ...apriori.Itemset) *apriori.FrequentSet {
	fs := &apriori.FrequentSet{MinSupport: 0.1, N: 100, Itemsets: sets, Counts: make([]int, len(sets))}
	for i := range fs.Counts {
		fs.Counts[i] = i
	}
	return fs
}

// checkGCR checks the merge against the oracle, and every reported index
// against FrequentSet.Lookup.
func checkGCR(t *testing.T, name string, fs1, fs2 *apriori.FrequentSet) {
	t.Helper()
	want := gcrOracle(fs1, fs2)
	got := newLitsGCR(fs1, fs2)
	if len(got.sets) != len(want) {
		t.Fatalf("%s: %d GCR itemsets, oracle %d", name, len(got.sets), len(want))
	}
	for i, s := range want {
		if !got.sets[i].Equal(s) {
			t.Fatalf("%s: itemset %d = %v, oracle %v", name, i, got.sets[i], s)
		}
		if j := fs1.Lookup(s); got.at1[i] != j {
			t.Fatalf("%s: %v at index %d of the first set, Lookup says %d", name, s, got.at1[i], j)
		}
		if j := fs2.Lookup(s); got.at2[i] != j {
			t.Fatalf("%s: %v at index %d of the second set, Lookup says %d", name, s, got.at2[i], j)
		}
	}
}

func TestGCRMergeMatchesOracle(t *testing.T) {
	is := apriori.NewItemset
	a := []apriori.Itemset{is(1), is(1, 2), is(1, 2, 5), is(2), is(3, 4)}
	b := []apriori.Itemset{is(0), is(1, 2), is(1, 3), is(3, 4), is(9)}
	for _, tc := range []struct {
		name     string
		fs1, fs2 *apriori.FrequentSet
	}{
		{"empty", frequentSet(), frequentSet()},
		{"empty-first", frequentSet(), frequentSet(a...)},
		{"empty-second", frequentSet(b...), frequentSet()},
		{"identical", frequentSet(a...), frequentSet(a...)},
		{"disjoint", frequentSet(is(1), is(1, 2)), frequentSet(is(0, 5), is(3))},
		{"overlapping", frequentSet(a...), frequentSet(b...)},
		{"unsorted", frequentSet(is(3, 4), is(1), is(2), is(1, 2, 5), is(1, 2)), frequentSet(is(9), is(0), is(1, 3), is(1, 2))},
		{"duplicates", frequentSet(is(1), is(2), is(1), is(2)), frequentSet(is(2), is(2), is(0))},
	} {
		checkGCR(t, tc.name, tc.fs1, tc.fs2)
	}
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 30; trial++ {
		d1 := skewedTxnDataset(rng, 150, 12, 5)
		d2 := skewedTxnDataset(rng, 150, 12, 5)
		m1, err := MineLits(d1, 0.05+0.1*rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		m2, err := MineLits(d2, 0.05+0.1*rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		checkGCR(t, "mined", m1.FS, m2.FS)
		rng.Shuffle(m2.Len(), func(i, j int) {
			m2.FS.Itemsets[i], m2.FS.Itemsets[j] = m2.FS.Itemsets[j], m2.FS.Itemsets[i]
			m2.FS.Counts[i], m2.FS.Counts[j] = m2.FS.Counts[j], m2.FS.Counts[i]
		})
		checkGCR(t, "mined-shuffled", m1.FS, &apriori.FrequentSet{Itemsets: m2.FS.Itemsets, Counts: m2.FS.Counts})
	}
}

// The lits replicate reads the supports of a view's own frequent itemsets
// from its mined set and counts only the rest; the result must equal
// View.Count over the whole GCR, focused or not.
func TestMinedCountsMatchViewCount(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	pool := skewedTxnDataset(rng, 600, 25, 6)
	p := apriori.NewViewPair(apriori.NewPool(pool))
	var reused, counted int
	for trial := 0; trial < 12; trial++ {
		if trial%2 == 0 {
			p.Extend(280, 90, rng)
		} else {
			p.Draw(280, 320, rng)
		}
		fs1, fs2, err := p.Mine([]float64{0.04, 0.06}[trial%2])
		if err != nil {
			t.Fatal(err)
		}
		gcr := newLitsGCR(fs1, fs2)
		if trial%3 == 0 {
			gcr.focus(func(s apriori.Itemset) bool { return len(s) != 2 })
		}
		for i := range gcr.sets {
			if gcr.at1[i] >= 0 {
				reused++
			}
			if gcr.at1[i] < 0 || gcr.at2[i] < 0 {
				counted++
			}
		}
		for side, v := range []*apriori.View{&p.V1, &p.V2} {
			fs, at := fs1, gcr.at1
			if side == 1 {
				fs, at = fs2, gcr.at2
			}
			got := minedCounts(fs, gcr.sets, at, v.Count)
			want := v.Count(gcr.sets)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d view %d: %v support %d, View.Count %d", trial, side+1, gcr.sets[i], got[i], want[i])
				}
			}
		}
	}
	if reused == 0 || counted == 0 {
		t.Fatalf("degenerate GCRs: %d supports reused, %d itemsets counted", reused, counted)
	}
}
