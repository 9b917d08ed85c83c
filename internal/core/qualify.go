package core

// This file holds the result of the qualification procedure of Section
// 3.4: is an observed deviation so large that the two datasets are unlikely
// to have been generated by the same process? The null distribution F of
// deviations between same-process datasets is estimated by bootstrapping:
// the two datasets are pooled, resample pairs of the original sizes are
// drawn with replacement, and the deviation is recomputed on each pair
// (models are re-induced on the resamples). sig(d) is the percentage of the
// null distribution below the observed deviation d. The procedure itself is
// written once, for every model class, in Qualify (modelclass.go).

// Qualification reports an observed deviation with its bootstrap
// significance.
type Qualification struct {
	// Deviation is the observed delta(f,g) between the two datasets.
	Deviation float64
	// Significance is sig(d) in percent: how much of the same-process null
	// distribution lies below the observed deviation. Values near 99+ mean
	// the datasets very likely differ in their characteristics; a deviation
	// of e.g. 0.01 "may not be uncommon between two datasets generated by
	// the same process" (Section 2.4) and earns a low significance.
	Significance float64
	// Null is the sorted bootstrap null distribution.
	Null []float64
}
