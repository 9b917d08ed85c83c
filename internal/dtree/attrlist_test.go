package dtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"focus/internal/dataset"
)

// comparatorLists is the presort the rank-based lists replace: each
// numeric attribute's row ids in (value, row id) order by a comparison
// sort.
func comparatorLists(d *dataset.Dataset) [][]int32 {
	lists := make([][]int32, len(d.Schema.Attrs))
	for _, a := range numericAttrs(d.Schema) {
		list := make([]int32, d.Len())
		for i := range list {
			list[i] = int32(i)
		}
		sort.Slice(list, func(i, j int) bool {
			vi, vj := d.Tuples[list[i]][a], d.Tuples[list[j]][a]
			if vi != vj {
				return vi < vj
			}
			return list[i] < list[j]
		})
		lists[a] = list
	}
	return lists
}

// tieDataset draws numeric values from a handful of levels, -0 and +0
// among them, and repeats earlier rows, so equal values dominate.
func tieDataset(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	levels := []float64{math.Copysign(0, -1), 0, 0.25, 0.5, 0.5, 1}
	d := dataset.New(mixedSchema())
	for i := 0; i < n; i++ {
		if i > 0 && rng.Intn(4) == 0 {
			d.Add(d.Tuples[rng.Intn(i)])
			continue
		}
		t := make(dataset.Tuple, len(d.Schema.Attrs))
		for a, attr := range d.Schema.Attrs {
			if attr.Kind == dataset.Numeric {
				t[a] = levels[rng.Intn(len(levels))]
			} else {
				t[a] = float64(rng.Intn(attr.Cardinality()))
			}
		}
		t[d.Schema.Class] = float64(rng.Intn(2))
		d.Add(t)
	}
	return d
}

// identityRows returns 0..n-1.
func identityRows(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

func sameLists(t *testing.T, label string, got *attrLists, want [][]int32) {
	t.Helper()
	for a, w := range want {
		if w == nil {
			if got.lists[a] != nil {
				t.Fatalf("%s: attribute %d has a list, want none", label, a)
			}
			continue
		}
		for i := range w {
			if got.lists[a][i] != w[i] {
				t.Fatalf("%s: attribute %d list[%d] = %d, comparator sort %d", label, a, i, got.lists[a][i], w[i])
			}
		}
	}
}

// Rank-built attribute lists must equal the comparator presort, for a
// dataset ranked directly and for with-replacement samples ranked through
// their pool.
func TestRankListsMatchComparatorSort(t *testing.T) {
	for _, n := range []int{1, 2, 17, 400} {
		for seed := int64(1); seed <= 3; seed++ {
			d := tieDataset(n, seed)
			for _, p := range []int{1, 4} {
				al := newAttrLists(n, rankAttrs(d, p), identityRows(n), p)
				sameLists(t, "dataset", al, comparatorLists(d))
			}
			r := rankAttrs(d, 1)
			rng := rand.New(rand.NewSource(seed))
			rows := make([]int32, 2*n+3)
			sample := dataset.New(d.Schema)
			for i := range rows {
				rows[i] = int32(rng.Intn(n))
				sample.Add(d.Tuples[rows[i]])
			}
			sameLists(t, "sample", newAttrLists(len(rows), r, rows, 1), comparatorLists(sample))
		}
	}
}

// -0 and +0 compare equal, so they must share a rank.
func TestRanksSignedZeroShareRank(t *testing.T) {
	d := dataset.New(numericSchema())
	d.Add(dataset.Tuple{0, 1, 0.5, 0}, dataset.Tuple{math.Copysign(0, -1), 0, 0.5, 1}, dataset.Tuple{-1, 0.5, 0.5, 2})
	r, err := NewRanks(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.rank[0]; got[0] != got[1] || got[2] != 0 || got[0] != 1 || r.distinct[0] != 2 {
		t.Fatalf("attribute a ranks %v (%d distinct), want [1 1 0] (2 distinct)", got, r.distinct[0])
	}
	if got := r.rank[2]; got[0] != 0 || got[1] != 0 || got[2] != 0 || r.distinct[2] != 1 {
		t.Fatalf("constant attribute ranks %v (%d distinct), want all 0 (1 distinct)", got, r.distinct[2])
	}
	if r.rank[3] != nil {
		t.Fatal("the class attribute was ranked")
	}
	d.Add(dataset.Tuple{math.NaN(), 0, 0, 0})
	if _, err := NewRanks(d, 1); err == nil {
		t.Fatal("NewRanks accepted a NaN value")
	}
}

// BuildSample must grow BuildP's tree bit for bit on the gathered sample,
// across schemas, growth configurations and tie-heavy data.
func TestBuildSampleMatchesBuildP(t *testing.T) {
	pools := map[string]*dataset.Dataset{
		"ties":    tieDataset(600, 7),
		"numeric": randomDataset(numericSchema(), 500, 8),
		"mixed":   randomDataset(mixedSchema(), 500, 9),
	}
	for _, name := range []string{"ties", "numeric", "mixed"} {
		pool := pools[name]
		r, err := NewRanks(pool, 2)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(10))
		for _, cfg := range []Config{{MaxDepth: 6, MinLeaf: 5}, {MaxDepth: 3, MinLeaf: 40}, {SplitSearch: SplitSearchHist, HistBins: 8}} {
			for _, n := range []int{1, 90, 700} {
				rows := make([]int32, n)
				sample := dataset.New(pool.Schema)
				for i := range rows {
					rows[i] = int32(rng.Intn(pool.Len()))
					sample.Add(pool.Tuples[rows[i]])
				}
				want, err := BuildP(sample, cfg, 1)
				if err != nil {
					t.Fatal(err)
				}
				got, err := BuildSample(sample, r, rows, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if d := treeDiff(got, want); d != "" {
					t.Fatalf("%s/%+v/n=%d: %s", name, cfg, n, d)
				}
			}
		}
	}
	if _, err := BuildSample(pools["ties"], mustRanks(t, pools["ties"]), []int32{0}, Config{}); err == nil {
		t.Fatal("BuildSample accepted a row list shorter than the sample")
	}
}

func mustRanks(t *testing.T, d *dataset.Dataset) *Ranks {
	t.Helper()
	r, err := NewRanks(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
