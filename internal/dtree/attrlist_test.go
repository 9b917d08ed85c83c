package dtree

import (
	"bytes"
	"fmt"
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

// rootLists returns the root attribute lists a build over the draw starts
// from, each entry's unit replaced by its ranked row, and leaves the
// builder ready for the next build.
func rootLists(b *Builder, rows []int32) [][]uint64 {
	b.setUnits(rows)
	out := make([][]uint64, len(b.lists))
	for _, a := range b.numeric {
		b.listRoot(a)
		for _, e := range b.lists[a] {
			out[a] = append(out[a], e&^(1<<32-1)|uint64(b.row[uint32(e)]))
		}
	}
	for _, p := range b.row {
		b.slot[p] = 0
	}
	return out
}

// sameLists checks the root lists of a draw from d against the comparator
// presort of the distinct drawn rows: the same rows in the same order,
// with ranks that ascend exactly where the values do.
func sameLists(t *testing.T, label string, d *dataset.Dataset, got [][]uint64, distinct []int32) {
	t.Helper()
	sub := dataset.New(d.Schema)
	for _, p := range distinct {
		sub.Add(d.Tuples[p])
	}
	for a, w := range comparatorLists(sub) {
		if w == nil {
			if got[a] != nil {
				t.Fatalf("%s: attribute %d has a list, want none", label, a)
			}
			continue
		}
		if len(got[a]) != len(w) {
			t.Fatalf("%s: attribute %d list holds %d entries, want %d", label, a, len(got[a]), len(w))
		}
		for i := range w {
			row := uint32(got[a][i])
			if row != uint32(distinct[w[i]]) {
				t.Fatalf("%s: attribute %d list[%d] is row %d, comparator sort %d", label, a, i, row, distinct[w[i]])
			}
			if i == 0 {
				continue
			}
			prev := got[a][i-1]
			sameValue := d.Tuples[uint32(prev)][a] == d.Tuples[row][a]
			if sameValue != (prev>>32 == got[a][i]>>32) {
				t.Fatalf("%s: attribute %d list[%d]: equal values %v, equal ranks %v", label, a, i, sameValue, !sameValue)
			}
		}
	}
}

// Rank-built attribute lists must equal the comparator presort, for every
// row of a dataset drawn once and for the distinct rows of
// with-replacement samples.
func TestRankListsMatchComparatorSort(t *testing.T) {
	for _, n := range []int{1, 2, 17, 400} {
		for seed := int64(1); seed <= 3; seed++ {
			d := tieDataset(n, seed)
			for _, p := range []int{1, 4} {
				b := NewBuilder(rankAttrs(d, p))
				sameLists(t, "dataset", d, rootLists(b, identityRows(n)), identityRows(n))
			}
			b := NewBuilder(rankAttrs(d, 1))
			rng := rand.New(rand.NewSource(seed))
			rows := make([]int32, 2*n+3)
			drawn := make([]bool, n)
			for i := range rows {
				rows[i] = int32(rng.Intn(n))
				drawn[rows[i]] = true
			}
			var distinct []int32
			for p, ok := range drawn {
				if ok {
					distinct = append(distinct, int32(p))
				}
			}
			sameLists(t, "sample", d, rootLists(b, rows), distinct)
		}
	}
}

// ranksOf returns attribute a's per-row ranks and its number of distinct
// values.
func ranksOf(r *Ranks, a int) ([]int32, int) {
	if r.order[a] == nil {
		return nil, 0
	}
	rank := make([]int32, len(r.order[a]))
	for _, e := range r.order[a] {
		rank[uint32(e)] = int32(e >> 32)
	}
	return rank, int(r.order[a][len(rank)-1]>>32) + 1
}

// -0 and +0 compare equal, so they must share a rank.
func TestRanksSignedZeroShareRank(t *testing.T) {
	d := dataset.New(numericSchema())
	d.Add(dataset.Tuple{0, 1, 0.5, 0}, dataset.Tuple{math.Copysign(0, -1), 0, 0.5, 1}, dataset.Tuple{-1, 0.5, 0.5, 2})
	r, err := NewRanks(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, distinct := ranksOf(r, 0); got[0] != got[1] || got[2] != 0 || got[0] != 1 || distinct != 2 {
		t.Fatalf("attribute a ranks %v (%d distinct), want [1 1 0] (2 distinct)", got, distinct)
	}
	if got, distinct := ranksOf(r, 2); got[0] != 0 || got[1] != 0 || got[2] != 0 || distinct != 1 {
		t.Fatalf("constant attribute ranks %v (%d distinct), want all 0 (1 distinct)", got, distinct)
	}
	if rank, _ := ranksOf(r, 3); rank != nil {
		t.Fatal("the class attribute was ranked")
	}
	d.Add(dataset.Tuple{math.NaN(), 0, 0, 0})
	if _, err := NewRanks(d, 1); err == nil {
		t.Fatal("NewRanks accepted a NaN value")
	}
}

// sampleBuildDiff builds the draw from pool both ways — a warm Builder
// over the distinct drawn rows, and BuildP over the gathered sample — and
// returns "" when the two trees encode to the same bytes and every
// distinct row is reported, with its draw count, in the leaf the gathered
// tree routes it to.
func sampleBuildDiff(b *Builder, pool *dataset.Dataset, rows []int32, cfg Config) string {
	sample := dataset.New(pool.Schema)
	for _, p := range rows {
		sample.Add(pool.Tuples[p])
	}
	want, err := BuildP(sample, cfg, 1)
	if err != nil {
		return err.Error()
	}
	got, err := b.Build(rows, cfg)
	if err != nil {
		return err.Error()
	}
	if g, w := got.AppendBinary(nil), want.AppendBinary(nil); !bytes.Equal(g, w) {
		return fmt.Sprintf("tree bytes differ: %s\ngot:\n%s\nwant:\n%s", treeDiff(got, want), got, want)
	}
	draws := make(map[int32]int)
	for _, p := range rows {
		draws[p]++
	}
	seen := 0
	var bad string
	b.EachRow(func(row int32, weight, leaf int) {
		seen++
		if bad == "" && weight != draws[row] {
			bad = fmt.Sprintf("row %d reported with weight %d, drawn %d times", row, weight, draws[row])
		}
		if want := want.LeafID(pool.Tuples[row]); bad == "" && leaf != want {
			bad = fmt.Sprintf("row %d reported in leaf %d, routes to leaf %d", row, leaf, want)
		}
	})
	if bad == "" && seen != len(draws) {
		bad = fmt.Sprintf("%d rows reported, %d distinct drawn", seen, len(draws))
	}
	return bad
}

// The drawn-row build must grow BuildP's tree on the gathered sample bit
// for bit, and place each drawn row in the leaf that tree routes it to:
// across schemas (mixed, numeric-only, categorical-only), tie-heavy data
// with signed zeros, ulp-adjacent values, heavy duplication (n draws from
// n/8 rows, so nodes with fewer distinct rows than MinLeaf still weigh at
// least MinLeaf), MinLeaf from 1 to 15, stumps and unbounded depth, and
// hist mode.
func TestBuildSampleMatchesBuildP(t *testing.T) {
	pools := []struct {
		name string
		d    *dataset.Dataset
	}{
		{"ties", tieDataset(600, 7)},
		{"numeric", randomDataset(numericSchema(), 500, 8)},
		{"mixed", randomDataset(mixedSchema(), 500, 9)},
		{"categorical", randomDataset(categoricalSchema(), 400, 10)},
		{"ulp", ulpDataset(t, 40)},
	}
	var cfgs []Config
	for _, minLeaf := range []int{1, 2, 7, 15} {
		for _, depth := range []int{1, 1 << 20} {
			cfgs = append(cfgs, Config{MaxDepth: depth, MinLeaf: minLeaf})
		}
	}
	cfgs = append(cfgs, Config{MaxDepth: 6, MinLeaf: 5}, Config{MaxDepth: 3, MinLeaf: 40})
	for _, pc := range pools {
		for _, dup := range []bool{false, true} {
			pool := pc.d
			if dup {
				// Heavy duplication: a pool of n/8 rows for n draws.
				pool = &dataset.Dataset{Schema: pool.Schema, Tuples: pool.Tuples[:max(1, pool.Len()/8)]}
			}
			r, err := NewRanks(pool, 2)
			if err != nil {
				t.Fatal(err)
			}
			b := NewBuilder(r)
			rng := rand.New(rand.NewSource(11))
			for _, cfg := range cfgs {
				for _, n := range []int{1, 90, 700} {
					if dup {
						n = 8 * pool.Len()
					}
					rows := make([]int32, n)
					for i := range rows {
						rows[i] = int32(rng.Intn(pool.Len()))
					}
					if d := sampleBuildDiff(b, pool, rows, cfg); d != "" {
						t.Fatalf("%s/dup=%v/%+v/n=%d: %s", pc.name, dup, cfg, n, d)
					}
				}
			}
		}
	}
	b := NewBuilder(mustRanks(t, pools[0].d))
	if _, err := b.Build(nil, Config{}); err == nil {
		t.Fatal("Build accepted an empty draw")
	}
	if _, err := b.Build([]int32{0, int32(pools[0].d.Len())}, Config{}); err == nil {
		t.Fatal("Build accepted a row outside the ranked dataset")
	}
	if _, err := b.Build([]int32{-1}, Config{}); err == nil {
		t.Fatal("Build accepted a negative row")
	}
}

// FuzzBuildSample is the differential fuzz of the drawn-row build: fuzz
// bytes give a configuration, a small pool over the mixed schema whose
// numeric values come from a table with signed zeros, ulp-adjacent values
// and a denormal, and a draw list; the build must match BuildP on the
// gathered sample as in TestBuildSampleMatchesBuildP.
func FuzzBuildSample(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 5, 1, 0, 2, 1, 0, 2, 1, 1, 0, 1, 3, 2, 2, 2, 1, 4, 3, 3, 0, 0, 5, 4, 4, 1, 0, 1, 2, 3, 4, 4, 4, 0})
	f.Add([]byte{0x3a, 0x00, 3, 5, 2, 4, 0, 1, 4, 0, 5, 1, 0, 6, 1, 3, 2, 1, 0, 0, 0, 1, 1, 2, 2, 2})
	f.Add([]byte{0x09, 0x05, 7, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 0, 3, 3, 3, 3, 1, 4, 4, 4, 4, 0, 5, 5, 0, 0, 1, 6, 6, 1, 1, 0, 0, 1, 2, 3, 4, 5, 6, 6, 6, 6})
	levels := []float64{-1, math.Copysign(0, -1), 0, 0.25, math.Nextafter(1, 0), 1, 5e-324, 0.5}
	s := mixedSchema()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cfg := Config{MinLeaf: 1 + int(data[0]&7), MaxDepth: 1 + int(data[0]>>3&7)}
		if cfg.MaxDepth == 8 {
			cfg.MaxDepth = 1 << 20
		}
		poolN := 1 + int(data[2])%24 // data[1] is unused; the seeds keep their layout
		data = data[3:]
		pool := dataset.New(s)
		for i := 0; i < poolN; i++ {
			tu := make(dataset.Tuple, len(s.Attrs))
			for a, at := range s.Attrs {
				var v byte
				if len(data) > 0 {
					v, data = data[0], data[1:]
				}
				if at.Kind == dataset.Numeric {
					tu[a] = levels[int(v)%len(levels)]
				} else {
					tu[a] = float64(int(v) % at.Cardinality())
				}
			}
			pool.Add(tu)
		}
		rows := []int32{0}
		if len(data) > 0 {
			rows = rows[:0]
			for _, v := range data {
				rows = append(rows, int32(int(v)%poolN))
			}
		}
		b := NewBuilder(mustRanks(t, pool))
		if d := sampleBuildDiff(b, pool, rows, cfg); d != "" {
			t.Fatalf("%+v, %d-row pool, draws %v: %s", cfg, poolN, rows, d)
		}
	})
}

// A warm builder allocates only the tree it returns: the Tree, its leaf
// table, every node, each leaf's class histogram and each categorical
// split's value set.
func TestBuilderAllocatesOnlyTheTree(t *testing.T) {
	pool := randomDataset(mixedSchema(), 2000, 12)
	b := NewBuilder(mustRanks(t, pool))
	rng := rand.New(rand.NewSource(13))
	rows := make([]int32, 1500)
	for i := range rows {
		rows[i] = int32(rng.Intn(pool.Len()))
	}
	cfg := Config{MaxDepth: 8, MinLeaf: 5}
	var tree *Tree
	build := func() {
		var err error
		if tree, err = b.Build(rows, cfg); err != nil {
			t.Fatal(err)
		}
	}
	build()
	build()
	want := 2 // the Tree and its leaf table
	var categorical int
	var walk func(n *Node)
	walk = func(n *Node) {
		want++ // the node
		if n.IsLeaf() {
			want++ // its class histogram
			return
		}
		if n.LeftValues != nil {
			want++
			categorical++
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(tree.Root)
	if tree.NumLeaves() < 10 || categorical == 0 {
		t.Fatalf("fixture too small: %d leaves, %d categorical splits", tree.NumLeaves(), categorical)
	}
	if got := testing.AllocsPerRun(5, build); got != float64(want) {
		t.Fatalf("warm build made %v allocations, want %d (the tree's own)", got, want)
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
