package apriori

import (
	"math/rand"
	"testing"

	"focus/internal/txn"
)

// checkViewPair draws a replicate pair through vp and through materialized
// txn.Resample calls from the same seed, and requires each view's mined
// set to equal vertical mining of its resample, the view's Count of the
// itemsets frequent in the other view alone to equal trie counting on the
// resample, and both draws to consume the same RNG stream.
func checkViewPair(t *testing.T, vp *ViewPair, d *txn.Dataset, seed int64, n1, n2 int, extension bool, minSupport float64) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	r1 := d.Resample(n1, want)
	r2 := d.Resample(n2, want)
	rng := rand.New(rand.NewSource(seed))
	if extension {
		var err error
		if r2, err = r1.Concat(r2); err != nil {
			t.Fatal(err)
		}
		vp.Extend(n1, n2, rng)
	} else {
		vp.Draw(n1, n2, rng)
	}
	if rng.Int63() != want.Int63() {
		t.Fatal("view draw consumed a different RNG stream than Resample")
	}
	fs1, fs2, err := vp.Mine(minSupport)
	if err != nil {
		t.Fatal(err)
	}
	sides := []struct {
		v      *View
		r      *txn.Dataset
		fs     *FrequentSet
		others *FrequentSet
	}{{&vp.V1, r1, fs1, fs2}, {&vp.V2, r2, fs2, fs1}}
	for i, s := range sides {
		if s.v.N() != s.r.Len() {
			t.Fatalf("view %d: N = %d, resample %d", i+1, s.v.N(), s.r.Len())
		}
		mined, err := MineWith(s.r, minSupport, 1, CounterBitmap)
		if err != nil {
			t.Fatal(err)
		}
		assertSameMine(t, "view", mined, s.fs)
		var oneSided []Itemset
		for _, set := range s.others.Itemsets {
			if s.fs.Lookup(set) < 0 {
				oneSided = append(oneSided, set)
			}
		}
		got := s.v.Count(oneSided)
		wantCounts := CountItemsetsC(s.r, oneSided, 1, CounterTrie)
		for k := range wantCounts {
			if got[k] != wantCounts[k] {
				t.Fatalf("view %d: Count(%v) = %d, resample %d", i+1, oneSided[k], got[k], wantCounts[k])
			}
		}
	}
}

// FuzzViewMine differentially tests exploded view pairs against mining and
// counting the materialized resamples. Every input runs two replicates
// through one pair, so buffers reused across draws are exercised too.
func FuzzViewMine(f *testing.F) {
	f.Add(uint8(5), uint8(10), int64(1), uint8(9), uint8(12), false, []byte{0, 1, 2, 5, 1, 2, 5, 2, 3})
	f.Add(uint8(3), uint8(1), int64(2), uint8(30), uint8(4), true, []byte{0, 1, 0, 1, 1, 3, 0, 2, 3, 1, 2})
	f.Add(uint8(12), uint8(30), int64(3), uint8(70), uint8(90), false, []byte("the quick brown fox jumps over the lazy dog"))
	f.Add(uint8(15), uint8(99), int64(4), uint8(0), uint8(65), true, []byte("pack my box with five dozen liquor jugs"))
	f.Fuzz(func(t *testing.T, nitems, msRaw uint8, seed int64, n1Raw, n2Raw uint8, extension bool, txnData []byte) {
		universe := int(nitems)%16 + 1
		d := decodeFuzzTxns(universe, txnData)
		if d.Len() == 0 {
			return
		}
		minSupport := (float64(msRaw%100) + 1) / 100
		n1, n2 := int(n1Raw)%100, int(n2Raw)%100
		vp := NewViewPair(NewPool(d))
		checkViewPair(t, vp, d, seed, n1, n2, extension, minSupport)
		checkViewPair(t, vp, d, seed+1, n1, n2, !extension, minSupport)
	})
}

// TestViewPairMatchesResample sweeps pair shapes wider than the fuzz
// seeds: view sizes across word boundaries, dense and sparse pools, and
// thresholds that leave many or few items frequent, with one pair reused
// across replicates of changing sizes.
func TestViewPairMatchesResample(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, tc := range []struct {
		name          string
		n, universe   int
		avgLen        int
		minSupports   []float64
		sizes         [][2]int
		withExtension bool
	}{
		{"sparse", 300, 40, 4, []float64{0.02, 0.05}, [][2]int{{150, 150}, {64, 65}, {129, 1}}, true},
		{"dense", 200, 12, 7, []float64{0.2, 0.4}, [][2]int{{100, 100}, {63, 200}}, true},
		{"tiny", 5, 6, 3, []float64{0.5, 1}, [][2]int{{3, 2}, {0, 4}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := diffDataset(rng, tc.n, tc.universe, tc.avgLen)
			vp := NewViewPair(NewPool(d))
			for _, ms := range tc.minSupports {
				for _, sz := range tc.sizes {
					checkViewPair(t, vp, d, rng.Int63(), sz[0], sz[1], false, ms)
					if tc.withExtension {
						checkViewPair(t, vp, d, rng.Int63(), sz[0], sz[1], true, ms)
					}
				}
			}
		})
	}
}
