package focus_test

// The acceptance test of the ModelClass abstraction: a brand-new model
// class — a single-attribute equi-width histogram — is registered by
// implementing focus.ModelClass alone and flows through Deviation,
// Qualify, RankRegions and NewMonitor without touching any core or stream
// internals. The structural component is the set of non-empty bins, the
// GCR of two models is the union of their non-empty bins, and the
// streaming window is built from two hooks: the per-batch bin-count
// vector and an induce from the window's summed counts.

import (
	"fmt"
	"math/rand"
	"testing"

	"focus"
	"focus/internal/classgen"
)

// histModel is a histogram's measure component: bin counts over the
// class's fixed binning.
type histModel struct {
	counts []int
	n      int
}

// histClass is the toy instantiation: an equi-width histogram over one
// numeric attribute.
type histClass struct {
	schema *focus.Schema
	attr   int
	bins   int
}

func (histClass) Name() string { return "histogram" }

func (histClass) Len(d *focus.Dataset) int { return d.Len() }

func (histClass) Concat(d1, d2 *focus.Dataset) (*focus.Dataset, error) { return d1.Concat(d2) }

func (histClass) Resample(d *focus.Dataset, n int, rng *rand.Rand) *focus.Dataset {
	return d.Resample(n, rng)
}

func (h histClass) binOf(t focus.Tuple) int {
	a := h.schema.Attrs[h.attr]
	b := int(float64(h.bins) * (t[h.attr] - a.Min) / (a.Max - a.Min))
	if b < 0 {
		b = 0
	}
	if b >= h.bins {
		b = h.bins - 1
	}
	return b
}

func (h histClass) countBins(d *focus.Dataset) []int {
	counts := make([]int, h.bins)
	for _, t := range d.Tuples {
		counts[h.binOf(t)]++
	}
	return counts
}

func (h histClass) Induce(d *focus.Dataset, parallelism int) (*histModel, error) {
	return &histModel{counts: h.countBins(d), n: d.Len()}, nil
}

// MeasureGCR: the refined regions are the bins non-empty in either model's
// structural component, in ascending bin order, measured by counting each
// dataset's tuples per bin.
func (h histClass) MeasureGCR(m1, m2 *histModel, d1, d2 *focus.Dataset, cfg *focus.Config) ([]focus.MeasuredRegion, error) {
	if len(m1.counts) != h.bins || len(m2.counts) != h.bins {
		return nil, fmt.Errorf("histogram: foreign model binning")
	}
	c1 := h.countBins(d1)
	c2 := h.countBins(d2)
	var out []focus.MeasuredRegion
	for b := 0; b < h.bins; b++ {
		if m1.counts[b] == 0 && m2.counts[b] == 0 {
			continue
		}
		out = append(out, focus.MeasuredRegion{Alpha1: float64(c1[b]), Alpha2: float64(c2[b])})
	}
	return out, nil
}

// NewWindow builds the class's streaming window from its two hooks: a
// batch's summary is its bin-count vector, and the window's model is its
// summed bin counts.
func (h histClass) NewWindow(parallelism int) (*focus.ModelWindow[*focus.Dataset, *histModel], error) {
	return focus.NewModelWindow(h, parallelism, h.summary, h.induceWindow), nil
}

func (h histClass) summary(d *focus.Dataset, parallelism int) ([]int, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if !d.Schema.Equal(h.schema) {
		return nil, fmt.Errorf("histogram: foreign batch schema")
	}
	return h.countBins(d), nil
}

func (h histClass) induceWindow(w *focus.ModelWindow[*focus.Dataset, *histModel]) (*histModel, error) {
	return &histModel{counts: append([]int(nil), w.Counts()...), n: w.N()}, nil
}

func (h histClass) MeasureGCRWindows(m1, m2 *histModel, w1, w2 *focus.ModelWindow[*focus.Dataset, *histModel]) ([]focus.MeasuredRegion, error) {
	c1, c2 := w1.Counts(), w2.Counts()
	var out []focus.MeasuredRegion
	for b := 0; b < h.bins; b++ {
		if m1.counts[b] == 0 && m2.counts[b] == 0 {
			continue
		}
		out = append(out, focus.MeasuredRegion{Alpha1: float64(c1[b]), Alpha2: float64(c2[b])})
	}
	return out, nil
}

// TestCustomModelClass drives the toy histogram class through all four
// unified pipelines.
func TestCustomModelClass(t *testing.T) {
	schema := classgen.Schema()
	hc := histClass{schema: schema, attr: classgen.AttrSalary, bins: 8}
	// The interface assertion is the registration: nothing else is needed.
	var mc focus.ModelClass[*focus.Dataset, *histModel] = hc

	d1 := classData(t, 2000, classgen.F1, 401)
	d2 := classData(t, 1800, classgen.F1, 402)
	// d3 has a genuinely different salary distribution: the low-salary
	// population vanished.
	full := classData(t, 3600, classgen.F1, 403)
	d3 := focus.FromTuples(schema, nil)
	for _, tup := range full.Tuples {
		if tup[classgen.AttrSalary] >= 60000 {
			d3.Add(tup)
		}
	}

	m1, err := mc.Induce(d1, 0)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := mc.Induce(d2, 0)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := mc.Induce(d3, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Deviation: delta(D,D) = 0; same process small, changed process larger.
	self, err := focus.Deviation(mc, m1, m1, d1, d1, focus.AbsoluteDiff, focus.Sum)
	if err != nil {
		t.Fatal(err)
	}
	if self != 0 {
		t.Errorf("delta(D,D) = %v, want 0", self)
	}
	same, err := focus.Deviation(mc, m1, m2, d1, d2, focus.AbsoluteDiff, focus.Sum)
	if err != nil {
		t.Fatal(err)
	}
	changed, err := focus.Deviation(mc, m1, m3, d1, d3, focus.AbsoluteDiff, focus.Sum)
	if err != nil {
		t.Fatal(err)
	}
	if same >= changed {
		t.Errorf("same-process deviation %v >= changed %v", same, changed)
	}

	// Qualify: deterministic bootstrap, changed process more significant.
	qSame, err := focus.Qualify(mc, d1, d2, focus.AbsoluteDiff, focus.Sum,
		focus.WithReplicates(19), focus.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	qChanged, err := focus.Qualify(mc, d1, d3, focus.AbsoluteDiff, focus.Sum,
		focus.WithReplicates(19), focus.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if qChanged.Significance < qSame.Significance {
		t.Errorf("changed significance %v < same-process %v", qChanged.Significance, qSame.Significance)
	}
	qAgain, err := focus.Qualify(mc, d1, d3, focus.AbsoluteDiff, focus.Sum,
		focus.WithReplicates(19), focus.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if qAgain.Significance != qChanged.Significance || qAgain.Deviation != qChanged.Deviation {
		t.Error("histogram qualification is not deterministic")
	}

	// RankRegions: ordered by decreasing per-bin deviation.
	ranked, err := focus.RankRegions(mc, m1, m3, d1, d3, focus.AbsoluteDiff)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) == 0 {
		t.Fatal("no ranked regions")
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Deviation > ranked[i-1].Deviation {
			t.Fatalf("ranking not decreasing at %d", i)
		}
	}

	// NewMonitor: the class streams through the generic incremental
	// monitor; every emission must equal rebuilding the window from its
	// raw batches through the batch pipeline.
	mon, err := focus.NewMonitor(mc, d1, focus.WithWindow(2))
	if err != nil {
		t.Fatal(err)
	}
	batches := []*focus.Dataset{
		classData(t, 400, classgen.F1, 410),
		classData(t, 400, classgen.F7, 411),
		classData(t, 400, classgen.F7, 412),
	}
	var window []*focus.Dataset
	for i, b := range batches {
		rep, err := mon.Ingest(b)
		if err != nil {
			t.Fatal(err)
		}
		if rep == nil {
			t.Fatalf("ingest %d: sliding window must emit", i)
		}
		window = append(window, b)
		if len(window) > 2 {
			window = window[1:]
		}
		winData := focus.FromTuples(schema, nil)
		for _, wb := range window {
			winData.Tuples = append(winData.Tuples, wb.Tuples...)
		}
		wm, err := mc.Induce(winData, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := focus.Deviation(mc, m1, wm, d1, winData, focus.AbsoluteDiff, focus.Sum)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Deviation != want {
			t.Errorf("ingest %d: incremental deviation %v != rebuilt %v", i, rep.Deviation, want)
		}
	}
	if mon.Reports() != 3 {
		t.Errorf("Reports = %d, want 3", mon.Reports())
	}
}
