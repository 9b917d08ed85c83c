package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"focus/internal/classgen"
	"focus/internal/core"
	"focus/internal/dataset"
	"focus/internal/dtree"
	"focus/internal/quest"
	"focus/internal/txn"
)

// qualifyInputs is the qualify-batch job's input: a lits pair whose
// pattern lengths differ and a dt pair drawn from different
// classification functions.
type qualifyInputs struct {
	l1, l2 *txn.Dataset
	c1, c2 *dataset.Dataset
}

// genQualifyInputs draws the lits pair from two fixed QUEST processes
// whose pattern lengths differ, and the dt pair from classgen functions F2
// and F3. The seed picks the draws; the processes stay fixed, so the
// frequent itemsets, and with them the mining cost, do not swing with it.
func genQualifyInputs(e *env) (*qualifyInputs, error) {
	rng := rand.New(rand.NewSource(e.seed))
	n := int(e.param("lits_txns"))
	lits := func(process int64, patLen float64) (*txn.Dataset, error) {
		cfg := quest.DefaultConfig(2 * n)
		cfg.NumItems = int(e.param("items"))
		cfg.NumPatterns = int(e.param("patterns"))
		cfg.AvgPatternLen = patLen
		cfg.Seed = process
		pop, err := quest.Generate(cfg)
		if err != nil {
			return nil, err
		}
		return pop.Resample(n, rng), nil
	}
	in := &qualifyInputs{}
	var err error
	if in.l1, err = lits(1, 4); err != nil {
		return nil, err
	}
	if in.l2, err = lits(2, 5); err != nil {
		return nil, err
	}
	m := int(e.param("dt_tuples"))
	if in.c1, err = classgen.Generate(classgen.Config{NumTuples: m, Function: classgen.F2, Seed: rng.Int63()}); err != nil {
		return nil, err
	}
	if in.c2, err = classgen.Generate(classgen.Config{NumTuples: m, Function: classgen.F3, Seed: rng.Int63()}); err != nil {
		return nil, err
	}
	return in, nil
}

// qualifyOptions are the job's bootstrap options at a parallelism.
func qualifyOptions(e *env, parallelism int) []core.Option {
	return []core.Option{
		core.WithReplicates(int(e.param("replicates"))),
		core.WithSeed(e.seed),
		core.WithParallelism(parallelism),
	}
}

// qualifyJob is the cmd/focus -qualify job on both pairs at the given
// parallelism.
func qualifyJob(e *env, in *qualifyInputs, parallelism int, tr *Tracer) ([2]core.Qualification, error) {
	var out [2]core.Qualification
	opts := qualifyOptions(e, parallelism)
	var err error
	if out[0], err = qualify(tr, core.Lits(e.param("min_support")), in.l1, in.l2, opts...); err != nil {
		return out, fmt.Errorf("qualifying the lits pair: %w", err)
	}
	if out[1], err = qualify(tr, core.DT(dtree.Config{}), in.c1, in.c2, opts...); err != nil {
		return out, fmt.Errorf("qualifying the dt pair: %w", err)
	}
	return out, nil
}

// sameQualification compares two qualifications bit for bit.
func sameQualification(a, b core.Qualification) bool {
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

// runQualify runs qualify-batch: dataset generation as set-up, then the
// job alternately at parallelism nproc and 1 until the run's time is up.
// Every job must return the first job's qualifications bit for bit.
func runQualify(e *env) (*result, error) {
	res := newResult()
	// Set-up rounds run in setupGroups groups: before the measured jobs,
	// half way through them and after them. The first round's inputs are
	// the ones the jobs use.
	perGroup := int(e.param("setup_rounds")) / setupGroups
	var in *qualifyInputs
	var setups []float64
	setupGroup := func() error {
		for i := 0; i < perGroup; i++ {
			runtime.GC()
			var got *qualifyInputs
			var err error
			setups = append(setups, e.off.Time("setup", func() { got, err = genQualifyInputs(e) }).Seconds())
			if err != nil {
				return err
			}
			if in == nil {
				in = got
			}
		}
		return nil
	}
	if err := setupGroup(); err != nil {
		return nil, err
	}

	var first *[2]core.Qualification
	check := func(q [2]core.Qualification, label string) {
		res.attempted++
		if first == nil {
			first = &q
			return
		}
		if !sameQualification(q[0], first[0]) || !sameQualification(q[1], first[1]) {
			res.mismatch("%s job: qualifications differ from the first job's", label)
		}
	}
	if e.traced {
		base, q, err := timedJob(e, in, e.conns, e.off)
		if err != nil {
			return nil, err
		}
		check(q, "untraced")
		sampler := startRuntimeSampler(e.tr)
		traced, q, err := timedJob(e, in, e.conns, e.tr)
		sampler.record(res)
		if err != nil {
			return nil, err
		}
		check(q, "traced")
		res.set("bench.trace_overhead_pct", 100*(traced-base)/base, 1)
		return res, qualifyEngineLayers(e, in)
	}

	var par, serial []float64
	start := time.Now()
	run := time.Duration(e.seconds * float64(time.Second))
	midway := false
	for len(serial) < int(e.param("min_jobs")) || time.Since(start) < run {
		for _, p := range []int{e.conns, 1} {
			d, q, err := timedJob(e, in, p, e.off)
			if err != nil {
				return nil, err
			}
			check(q, fmt.Sprintf("parallelism %d", p))
			if p == 1 {
				serial = append(serial, d)
			} else {
				par = append(par, d)
			}
		}
		if !midway && time.Since(start) >= run/2 {
			midway = true
			if err := setupGroup(); err != nil {
				return nil, err
			}
		}
	}
	res.set("op_p50_ms", median(par), len(par))
	// Every workload prints every end-to-end metric; here the rate is the
	// median job's, so it restates op_p50_ms.
	res.set("op_per_s", 1000/median(par), len(par))
	res.set("aux_p50_ms", median(serial), len(serial))
	if err := setPeakRSS(res); err != nil {
		return nil, err
	}
	if err := setupGroup(); err != nil {
		return nil, err
	}
	res.set("setup_s", median(setups), len(setups))
	return res, nil
}

// timedJob runs one job and returns its wall time in ms.
func timedJob(e *env, in *qualifyInputs, parallelism int, tr *Tracer) (float64, [2]core.Qualification, error) {
	runtime.GC()
	var q [2]core.Qualification
	var err error
	d := tr.Time("bench.job", func() { q, err = qualifyJob(e, in, parallelism, tr) })
	return ms(d), q, err
}

// qualifyEngineLayers times the layers under the job beside it: the
// observed-deviation path of both pairs, mining and counting the lits
// pair, and growing both trees.
func qualifyEngineLayers(e *env, in *qualifyInputs) error {
	opts := qualifyOptions(e, e.conns)
	if err := observed(e.tr, core.Lits(e.param("min_support")), in.l1, in.l2, opts...); err != nil {
		return err
	}
	if err := observed(e.tr, core.DT(dtree.Config{}), in.c1, in.c2, opts...); err != nil {
		return err
	}
	if err := minePair(e.tr, in.l1, in.l2, e.param("min_support"), e.conns); err != nil {
		return err
	}
	for _, d := range []*dataset.Dataset{in.c1, in.c2} {
		var m *core.DTModel
		var err error
		e.tr.Time("dtree.build", func() { m, err = core.BuildDTModelP(d, dtree.Config{}, e.conns) })
		if err != nil {
			return err
		}
		e.tr.Count("dtree.leaves", int64(m.Tree.NumLeaves()))
	}
	return nil
}
