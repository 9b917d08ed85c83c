package stream

import (
	"math"
	"testing"

	"focus/internal/classgen"
	"focus/internal/cluster"
	"focus/internal/core"
	"focus/internal/dataset"
	"focus/internal/dtree"
	"focus/internal/txn"
)

// A qualified report must carry exactly what core.Qualify computes over
// the raw reference and window data with the emission's seed: the same
// null distribution and the same significance, bit for bit, although the
// monitor reuses the deviation it measured from its windows' summaries
// instead of re-deriving it.

// checkQualifyMatchesBatch feeds batches through qualifying monitors of mc
// under a pinned and a previous-window policy and compares every report's
// qualification with core.Qualify over the rebuilt raw data. concat
// assembles the raw data of the batches at the given indices, in order.
func checkQualifyMatchesBatch[D, M any](t *testing.T, mc core.ModelClass[D, M], ref D, batches []D, concat func(idx []int) D) {
	t.Helper()
	for _, pc := range []struct {
		name string
		opts Options
	}{
		{"sliding-pinned", Options{WindowBatches: 2}},
		{"sliding-prev", Options{WindowBatches: 2, PreviousWindow: true}},
	} {
		for _, fg := range fgCases() {
			opts := pc.opts
			opts.F, opts.G = fg.f, fg.g
			opts.Qualify, opts.Replicates, opts.Seed, opts.Parallelism = true, 7, 13, 2
			name := pc.name + "/" + fg.name
			var pinned D
			if !opts.PreviousWindow {
				pinned = ref
			}
			mon, err := New(mc, pinned, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			s := &sim{opts: opts, hasPrev: !opts.PreviousWindow}
			emitted := 0
			for i, b := range batches {
				rep, err := mon.IngestEpoch(epochOf(i), b)
				if err != nil {
					t.Fatalf("%s: ingest %d: %v", name, i, err)
				}
				emit, winIdx, refIdx, refPinned := s.step(i, epochOf(i))
				if emit != (rep != nil) {
					t.Fatalf("%s: ingest %d: emitted=%v, want %v", name, i, rep != nil, emit)
				}
				if rep == nil {
					continue
				}
				emitted++
				refData := ref
				if !refPinned {
					refData = concat(refIdx)
				}
				want, err := core.Qualify(mc, refData, concat(winIdx), fg.f, fg.g, core.WithConfig(core.Config{
					Replicates:  opts.Replicates,
					Seed:        opts.Seed + int64(rep.Seq),
					Parallelism: opts.Parallelism,
				}))
				if err != nil {
					t.Fatal(err)
				}
				got := rep.Qual
				if got == nil {
					t.Fatalf("%s: ingest %d: no qualification", name, i)
				}
				if got.Deviation != rep.Deviation {
					t.Errorf("%s: ingest %d: Qual.Deviation %v != Deviation %v", name, i, got.Deviation, rep.Deviation)
				}
				if math.Float64bits(got.Significance) != math.Float64bits(want.Significance) || len(got.Null) != len(want.Null) {
					t.Fatalf("%s: ingest %d: significance %v over %d replicates, Qualify %v over %d",
						name, i, got.Significance, len(got.Null), want.Significance, len(want.Null))
				}
				for k := range want.Null {
					if math.Float64bits(got.Null[k]) != math.Float64bits(want.Null[k]) {
						t.Fatalf("%s: ingest %d: null[%d] = %v, Qualify %v", name, i, k, got.Null[k], want.Null[k])
					}
				}
			}
			if emitted == 0 {
				t.Errorf("%s: no reports emitted", name)
			}
		}
	}
}

func TestMonitorQualifyMatchesBatchQualify(t *testing.T) {
	t.Run("lits", func(t *testing.T) {
		// 80-transaction batches make every pool at least 160 rows, so the
		// auto backend bootstraps through exploded view pairs.
		const numItems = 25
		raw := randTxnBatches(101, 6, 80, numItems, 6)
		batches := make([]*txn.Dataset, len(raw))
		for i, b := range raw {
			batches[i] = &txn.Dataset{NumItems: numItems, Txns: b}
		}
		ref := concatTxns(numItems, randTxnBatches(102, 2, 80, numItems, 6), []int{0, 1})
		checkQualifyMatchesBatch(t, core.Lits(0.08), ref, batches, func(idx []int) *txn.Dataset {
			return concatTxns(numItems, raw, idx)
		})
	})

	fns := []classgen.Function{classgen.F2, classgen.F2, classgen.F3, classgen.F2, classgen.F1, classgen.F3}
	t.Run("pinned-dt", func(t *testing.T) {
		train, err := classgen.Generate(classgen.Config{NumTuples: 1200, Function: classgen.F2, Seed: 103})
		if err != nil {
			t.Fatal(err)
		}
		tree, err := dtree.Build(train, dtree.Config{MaxDepth: 4, MinLeaf: 40})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := classgen.Generate(classgen.Config{NumTuples: 300, Function: classgen.F2, Seed: 104})
		if err != nil {
			t.Fatal(err)
		}
		raw := classBatches(t, fns, 120, 105)
		checkQualifyMatchesBatch(t, core.PinnedDT(tree), ref, tupleBatches(tree.Schema, raw), func(idx []int) *dataset.Dataset {
			return concatTuples(tree.Schema, raw, idx)
		})
	})
	t.Run("cluster", func(t *testing.T) {
		schema := classgen.Schema()
		grid, err := cluster.NewGrid(schema, []int{classgen.AttrSalary, classgen.AttrAge}, 5)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := classgen.Generate(classgen.Config{NumTuples: 300, Function: classgen.F1, Seed: 106})
		if err != nil {
			t.Fatal(err)
		}
		raw := classBatches(t, fns, 120, 107)
		checkQualifyMatchesBatch(t, core.Cluster(grid, 0.02), ref, tupleBatches(schema, raw), func(idx []int) *dataset.Dataset {
			return concatTuples(schema, raw, idx)
		})
	})
}

// tupleBatches wraps raw tuple batches as datasets of the schema.
func tupleBatches(s *dataset.Schema, raw [][]dataset.Tuple) []*dataset.Dataset {
	out := make([]*dataset.Dataset, len(raw))
	for i, b := range raw {
		out[i] = dataset.FromTuples(s, b)
	}
	return out
}
