package core

import (
	"math/rand"
	"testing"

	"focus/internal/classgen"
	"focus/internal/dataset"
	"focus/internal/dtree"
	"focus/internal/region"
)

// genericDT hides dtClass's bootstrapper fast path: embedding the
// ModelClass interface promotes only its methods, so Qualify over a
// genericDT runs the generic Resample/Induce/MeasureGCR replicate.
type genericDT struct {
	ModelClass[*dataset.Dataset, *DTModel]
}

// The ranked dt bootstrap must be invisible: Qualify through dtClass's
// fast path and through the generic oracle must produce bit-identical
// deviations, significances and null distributions for plain, extension
// and focused qualification at every parallelism. Run under -race this
// also checks that concurrent replicates share the pool ranks safely.
func TestDTQualifyBootstrapEquivalence(t *testing.T) {
	d1, err := classgen.Generate(classgen.Config{NumTuples: 700, Function: classgen.F2, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := classgen.Generate(classgen.Config{NumTuples: 900, Function: classgen.F3, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	s := d1.Schema
	salary, age := s.AttrIndex("salary"), s.AttrIndex("age")
	if _, ok := any(DT(dtree.Config{})).(bootstrapper[*dataset.Dataset]); !ok {
		t.Fatal("dtClass lost its bootstrapper fast path")
	}
	if _, ok := any(genericDT{}).(bootstrapper[*dataset.Dataset]); ok {
		t.Fatal("the generic oracle exposes the fast path")
	}
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"plain", nil},
		{"extension", []Option{WithExtension()}},
		{"focused", []Option{WithFocus(region.Full(s).ConstrainUpper(salary, 90000).ConstrainLower(age, 30))}},
		{"focused-class", []Option{WithFocus(region.Full(s).ConstrainClass(1))}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := dtree.Config{MaxDepth: 6, MinLeaf: 15}
			base := append([]Option{WithReplicates(9), WithSeed(33), WithParallelism(1)}, tc.opts...)
			want, err := Qualify[*dataset.Dataset, *DTModel](genericDT{DT(cfg)}, d1, d2, AbsoluteDiff, Sum, base...)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{1, 4} {
				opts := append([]Option{WithReplicates(9), WithSeed(33), WithParallelism(p)}, tc.opts...)
				got, err := Qualify(DT(cfg), d1, d2, AbsoluteDiff, Sum, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if got.Deviation != want.Deviation || got.Significance != want.Significance {
					t.Fatalf("par%d: (dev, sig) = (%v, %v), generic (%v, %v)",
						p, got.Deviation, got.Significance, want.Deviation, want.Significance)
				}
				if len(got.Null) != len(want.Null) {
					t.Fatalf("par%d: %d null replicates, generic %d", p, len(got.Null), len(want.Null))
				}
				for i := range want.Null {
					if got.Null[i] != want.Null[i] {
						t.Fatalf("par%d: null[%d] = %v, generic %v", p, i, got.Null[i], want.Null[i])
					}
				}
			}
		})
	}
}

// dtOverlayOracle measures the GCR overlay the way dtMeasureGCR did
// before its dense leaf-pair table: regions from DTGCRRegions filtered by
// the focus, tuples counted through a (leaf1, leaf2, class) map.
func dtOverlayOracle(m1, m2 *DTModel, d1, d2 *dataset.Dataset, focus *region.Box) []MeasuredRegion {
	gcr, err := DTGCRRegions(m1, m2)
	if err != nil {
		panic(err)
	}
	type key struct{ l1, l2, c int }
	idx := make(map[key]int)
	var regions []MeasuredRegion
	for _, r := range gcr {
		if focus != nil && (r.Box.Intersect(focus) == nil || !classAllowed(focus, r.Class)) {
			continue
		}
		idx[key{r.Leaf1, r.Leaf2, r.Class}] = len(regions)
		regions = append(regions, MeasuredRegion{})
	}
	for side, d := range []*dataset.Dataset{d1, d2} {
		for _, t := range d.Tuples {
			if focus != nil && !focus.Contains(t) {
				continue
			}
			if i, ok := idx[key{m1.Tree.LeafID(t), m2.Tree.LeafID(t), t.Class(d.Schema)}]; ok {
				if side == 0 {
					regions[i].Alpha1++
				} else {
					regions[i].Alpha2++
				}
			}
		}
	}
	return regions
}

// The overlay measured through Box.Overlaps and the dense leaf-pair table
// must list the same regions, in the same order, with the same counts.
func TestDTMeasureGCRMatchesOverlayOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	s := dtTestSchema()
	noClass := region.Full(s).ConstrainCats(s.Class, make([]bool, s.NumClasses()))
	for trial := 0; trial < 6; trial++ {
		d1, d2 := randomDTDataset(rng, 300+50*trial), randomDTDataset(rng, 350)
		cfg := dtree.Config{MaxDepth: 2 + trial%4, MinLeaf: 10}
		m1, err := BuildDTModel(d1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := BuildDTModel(d2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, focus := range []*region.Box{
			nil,
			region.Full(s).ConstrainUpper(0, 0.4).ConstrainLower(1, 0.3),
			region.Full(s).ConstrainClass(1),
			noClass,
		} {
			want := dtOverlayOracle(m1, m2, d1, d2, focus)
			for _, p := range []int{1, 3} {
				got, err := dtMeasureGCR(m1, m2, d1, d2, &Config{FocusRegion: focus, Parallelism: p})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d focus %v par%d: %d regions, oracle %d", trial, focus, p, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d focus %v par%d: region %d = %+v, oracle %+v", trial, focus, p, i, got[i], want[i])
					}
				}
			}
		}
	}
}
