package main

import (
	"focus/internal/apriori"
	"focus/internal/core"
	"focus/internal/serve"
	"focus/internal/txn"
)

// qualify times core.Qualify on (d1, d2).
func qualify[D, M any](tr *Tracer, mc core.ModelClass[D, M], d1, d2 D, opts ...core.Option) (core.Qualification, error) {
	var q core.Qualification
	var err error
	tr.Time("core.qualify", func() { q, err = core.Qualify(mc, d1, d2, core.AbsoluteDiff, core.Sum, opts...) })
	tr.Count("stats.replicates", int64(len(q.Null)))
	return q, err
}

// observed times, beside core.Qualify, the observed-deviation path it
// starts with: a "core.observed" span whose children are the two
// ModelClass.Induce calls, MeasureGCR and Deviation1. The rest of
// Qualify's time is its bootstrap.
func observed[D, M any](tr *Tracer, mc core.ModelClass[D, M], d1, d2 D, opts ...core.Option) error {
	cfg := core.NewConfig(opts...)
	obs := tr.Begin("core.observed", 0, 0)
	defer tr.End(obs)
	var m1, m2 M
	var err error
	tr.TimeIn("core.induce", obs, func() { m1, err = mc.Induce(d1, cfg.Parallelism) })
	if err != nil {
		return err
	}
	tr.TimeIn("core.induce", obs, func() { m2, err = mc.Induce(d2, cfg.Parallelism) })
	if err != nil {
		return err
	}
	var regions []core.MeasuredRegion
	tr.TimeIn("core.measure_gcr_scan", obs, func() { regions, err = mc.MeasureGCR(m1, m2, d1, d2, &cfg) })
	if err != nil {
		return err
	}
	tr.Count("core.gcr_regions", int64(len(regions)))
	tr.Count("core.gcr_measures", 1)
	tr.TimeIn("core.deviation1", obs, func() {
		core.Deviation1(regions, float64(mc.Len(d1)), float64(mc.Len(d2)), core.AbsoluteDiff, core.Sum)
	})
	return nil
}

// minePair times the apriori layer on one pair of transaction sets: mine
// d1, build d2's vertical index, and count d1's frequent itemsets in d2.
func minePair(tr *Tracer, d1, d2 *txn.Dataset, minSupport float64, parallelism int) error {
	var fs *apriori.FrequentSet
	var err error
	tr.Time("apriori.mine", func() { fs, err = apriori.MineWith(d1, minSupport, parallelism, apriori.CounterDefault) })
	if err != nil {
		return err
	}
	tr.Count("apriori.itemsets", int64(fs.Len()))
	tr.Count("apriori.mines", 1)
	tr.Time("apriori.vertical_build", func() { apriori.BuildVerticalIndex(d2, parallelism) })
	tr.Time("apriori.count", func() { apriori.CountItemsetsC(d2, fs.Itemsets, parallelism, apriori.CounterDefault) })
	return nil
}

// maxQualifyProbes bounds the bootstrap probes per qualified session: each
// costs as much as a qualified feed.
const maxQualifyProbes = 4

// litsEngineLayers slides the session's window over batches and, at each
// step, times the apriori layer on the window against the reference and,
// for a qualifying session, the bootstrap of the window against the
// reference, each at the session's parallelism as its member would.
func litsEngineLayers(tr *Tracer, mc core.ModelClass[*txn.Dataset, *core.LitsModel], ref *txn.Dataset, batches []*txn.Dataset, cfg *serve.SessionConfig) error {
	for i := range batches {
		win := txn.New(ref.NumItems)
		for _, b := range batches[max(0, i+1-window) : i+1] {
			win.Txns = append(win.Txns, b.Txns...)
		}
		if err := minePair(tr, win, ref, cfg.MinSupport, cfg.Parallelism); err != nil {
			return err
		}
		if cfg.Qualify && i < maxQualifyProbes {
			opts := []core.Option{core.WithReplicates(cfg.Replicates), core.WithSeed(cfg.Seed), core.WithParallelism(cfg.Parallelism)}
			if _, err := qualify(tr, mc, ref, win, opts...); err != nil {
				return err
			}
			if err := observed(tr, mc, ref, win, opts...); err != nil {
				return err
			}
		}
	}
	return nil
}
