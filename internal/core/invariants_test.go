package core

// The paper hands a test substrate for free: identities that must hold for
// every model class, difference function and aggregate. This file sweeps
// them over randomized datasets:
//
//   - delta(D,D) = 0 (Definition 3.6 — identical data, identical models);
//   - symmetry: delta(f,g)(D1,D2) = delta(f,g)(D2,D1) for f_a and f_s;
//   - non-negativity: deviations never go below zero;
//   - Max <= Sum: g_max is dominated by g_sum over non-negative diffs;
//   - focussing on the full region changes nothing.

import (
	"math"
	"math/rand"
	"testing"

	"focus/internal/apriori"
	"focus/internal/classgen"
	"focus/internal/cluster"
	"focus/internal/dataset"
	"focus/internal/dtree"
	"focus/internal/region"
	"focus/internal/txn"
)

const invariantSeeds = 4

func invariantTxnData(t *testing.T, seed int64) (*txn.Dataset, *txn.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	gen := func(n int) *txn.Dataset {
		d := txn.New(25)
		for i := 0; i < n; i++ {
			tx := make(txn.Transaction, 1+rng.Intn(7))
			for j := range tx {
				tx[j] = txn.Item(rng.Intn(25))
			}
			d.Add(tx.Normalize())
		}
		return d
	}
	return gen(300 + rng.Intn(100)), gen(250 + rng.Intn(100))
}

func invariantClassData(t *testing.T, seed int64) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	fns := []classgen.Function{classgen.F1, classgen.F2, classgen.F3, classgen.F4}
	d1, err := classgen.Generate(classgen.Config{NumTuples: 700, Function: fns[seed%4], Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := classgen.Generate(classgen.Config{NumTuples: 600, Function: fns[(seed+1)%4], Seed: seed + 1000})
	if err != nil {
		t.Fatal(err)
	}
	return d1, d2
}

func invariantFG() []struct {
	name string
	f    DiffFunc
	g    AggFunc
} {
	return []struct {
		name string
		f    DiffFunc
		g    AggFunc
	}{
		{"fa-sum", AbsoluteDiff, Sum},
		{"fa-max", AbsoluteDiff, Max},
		{"fs-sum", ScaledDiff, Sum},
		{"fs-max", ScaledDiff, Max},
	}
}

// closeEnough compares two deviations that are mathematically equal but
// may be aggregated in different region orders (symmetry swaps the GCR
// enumeration order for dt- and cluster-models).
func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestInvariantsLits(t *testing.T) {
	const minSupport = 0.05
	lits := Lits(minSupport)
	for seed := int64(0); seed < invariantSeeds; seed++ {
		d1, d2 := invariantTxnData(t, seed)
		m1, err := MineLits(d1, minSupport)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := MineLits(d2, minSupport)
		if err != nil {
			t.Fatal(err)
		}
		for _, fg := range invariantFG() {
			// delta(D,D) = 0, exactly.
			self, err := Deviation(lits, m1, m1, d1, d1, fg.f, fg.g)
			if err != nil {
				t.Fatal(err)
			}
			if self != 0 {
				t.Errorf("seed %d %s: delta(D,D) = %v, want 0", seed, fg.name, self)
			}
			// Symmetry under argument swap.
			ab, err := Deviation(lits, m1, m2, d1, d2, fg.f, fg.g)
			if err != nil {
				t.Fatal(err)
			}
			ba, err := Deviation(lits, m2, m1, d2, d1, fg.f, fg.g)
			if err != nil {
				t.Fatal(err)
			}
			if !closeEnough(ab, ba) {
				t.Errorf("seed %d %s: delta(D1,D2) %v != delta(D2,D1) %v", seed, fg.name, ab, ba)
			}
			// Non-negativity.
			if ab < 0 {
				t.Errorf("seed %d %s: deviation %v < 0", seed, fg.name, ab)
			}
			// Focussing on everything changes nothing, exactly.
			full, err := Deviation(lits, m1, m2, d1, d2, fg.f, fg.g, WithFocusItemsets(func(apriori.Itemset) bool { return true }))
			if err != nil {
				t.Fatal(err)
			}
			if full != ab {
				t.Errorf("seed %d %s: full-focus deviation %v != unfocussed %v", seed, fg.name, full, ab)
			}
		}
		// Max <= Sum for both difference functions.
		for _, f := range []DiffFunc{AbsoluteDiff, ScaledDiff} {
			sum, err := Deviation(lits, m1, m2, d1, d2, f, Sum)
			if err != nil {
				t.Fatal(err)
			}
			max, err := Deviation(lits, m1, m2, d1, d2, f, Max)
			if err != nil {
				t.Fatal(err)
			}
			if max > sum {
				t.Errorf("seed %d: Max %v > Sum %v", seed, max, sum)
			}
		}
	}
}

func TestInvariantsDT(t *testing.T) {
	cfg := dtree.Config{MaxDepth: 5, MinLeaf: 30}
	dt := DT(cfg)
	for seed := int64(0); seed < invariantSeeds; seed++ {
		d1, d2 := invariantClassData(t, seed)
		m1, err := BuildDTModel(d1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := BuildDTModel(d2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, fg := range invariantFG() {
			self, err := Deviation(dt, m1, m1, d1, d1, fg.f, fg.g)
			if err != nil {
				t.Fatal(err)
			}
			if self != 0 {
				t.Errorf("seed %d %s: delta(D,D) = %v, want 0", seed, fg.name, self)
			}
			ab, err := Deviation(dt, m1, m2, d1, d2, fg.f, fg.g)
			if err != nil {
				t.Fatal(err)
			}
			ba, err := Deviation(dt, m2, m1, d2, d1, fg.f, fg.g)
			if err != nil {
				t.Fatal(err)
			}
			if !closeEnough(ab, ba) {
				t.Errorf("seed %d %s: delta(D1,D2) %v != delta(D2,D1) %v", seed, fg.name, ab, ba)
			}
			if ab < 0 {
				t.Errorf("seed %d %s: deviation %v < 0", seed, fg.name, ab)
			}
			full, err := Deviation(dt, m1, m2, d1, d2, fg.f, fg.g, WithFocus(region.Full(d1.Schema)))
			if err != nil {
				t.Fatal(err)
			}
			if full != ab {
				t.Errorf("seed %d %s: full-focus deviation %v != unfocussed %v", seed, fg.name, full, ab)
			}
		}
		for _, f := range []DiffFunc{AbsoluteDiff, ScaledDiff} {
			sum, err := Deviation(dt, m1, m2, d1, d2, f, Sum)
			if err != nil {
				t.Fatal(err)
			}
			max, err := Deviation(dt, m1, m2, d1, d2, f, Max)
			if err != nil {
				t.Fatal(err)
			}
			if max > sum {
				t.Errorf("seed %d: Max %v > Sum %v", seed, max, sum)
			}
		}
	}
}

func TestInvariantsCluster(t *testing.T) {
	schema := classgen.Schema()
	grid, err := cluster.NewGrid(schema, []int{classgen.AttrSalary, classgen.AttrAge}, 6)
	if err != nil {
		t.Fatal(err)
	}
	const minDensity = 0.02
	cl := Cluster(grid, minDensity)
	for seed := int64(0); seed < invariantSeeds; seed++ {
		d1, d2 := invariantClassData(t, seed)
		m1, err := BuildClusterModel(d1, grid, minDensity)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := BuildClusterModel(d2, grid, minDensity)
		if err != nil {
			t.Fatal(err)
		}
		for _, fg := range invariantFG() {
			self, err := Deviation(cl, m1, m1, d1, d1, fg.f, fg.g)
			if err != nil {
				t.Fatal(err)
			}
			if self != 0 {
				t.Errorf("seed %d %s: delta(D,D) = %v, want 0", seed, fg.name, self)
			}
			ab, err := Deviation(cl, m1, m2, d1, d2, fg.f, fg.g)
			if err != nil {
				t.Fatal(err)
			}
			ba, err := Deviation(cl, m2, m1, d2, d1, fg.f, fg.g)
			if err != nil {
				t.Fatal(err)
			}
			if !closeEnough(ab, ba) {
				t.Errorf("seed %d %s: delta(D1,D2) %v != delta(D2,D1) %v", seed, fg.name, ab, ba)
			}
			if ab < 0 {
				t.Errorf("seed %d %s: deviation %v < 0", seed, fg.name, ab)
			}
		}
		for _, f := range []DiffFunc{AbsoluteDiff, ScaledDiff} {
			sum, err := Deviation(cl, m1, m2, d1, d2, f, Sum)
			if err != nil {
				t.Fatal(err)
			}
			max, err := Deviation(cl, m1, m2, d1, d2, f, Max)
			if err != nil {
				t.Fatal(err)
			}
			if max > sum {
				t.Errorf("seed %d: Max %v > Sum %v", seed, max, sum)
			}
		}
	}
}
