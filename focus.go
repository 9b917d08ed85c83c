// Package focus is the public API of this reproduction of "A Framework for
// Measuring Changes in Data Characteristics" (Ganti, Gehrke, Ramakrishnan,
// Loh — PODS 1999).
//
// FOCUS quantifies the deviation between two datasets through the data
// mining models they induce. A model has a structural component (a set of
// regions of the attribute space) and a measure component (the fraction of
// the dataset in each region). Two models of one class are compared by
// extending both to the greatest common refinement (GCR) of their structural
// components and aggregating a per-region difference:
//
//	delta(f,g)(M1, M2) = g({ f(alpha1, alpha2, |D1|, |D2|) : regions of the GCR })
//
// with f a difference function (AbsoluteDiff = f_a, ScaledDiff = f_s) and g
// an aggregate (Sum, Max).
//
// # Model classes
//
// The paper's central claim is that FOCUS is one framework which concrete
// model classes merely instantiate. The API mirrors that: the generic
// ModelClass interface captures what an instantiation must provide — induce
// a model from a dataset, extend two models to their GCR and measure the
// refined regions (parallel, shardable), and seal batches into mergeable
// count summaries for streaming — and every pipeline is written once
// against it:
//
//   - Deviation(mc, m1, m2, d1, d2, f, g, opts...) — delta(f,g) between two
//     datasets through their models (Definition 3.6);
//   - Qualify(mc, d1, d2, f, g, opts...) — the deviation with its bootstrap
//     significance (Section 3.4);
//   - RankRegions(mc, m1, m2, d1, d2, f, opts...) — the GCR regions ordered
//     by their single-region deviation (Section 5);
//   - NewMonitor(mc, ref, opts...) — the monitoring regime of Section 5.2
//     run continuously over a stream of batches.
//
// Four instantiations ship with the package, mirroring the paper:
//
//   - Lits(minSupport): frequent-itemset models mined by Apriori
//     (Section 2.2);
//   - DT(cfg): decision-tree partitions built by a CART-style grower, GCR
//     by overlay (Section 2.1);
//   - PinnedDT(tree): the Section 5.2 monitoring instantiation — the
//     structural component is fixed to a pinned tree's leaf-by-class cells;
//   - Cluster(grid, minDensity): grid-based cluster regions (Section 2.4).
//
// A new model class (histograms, quantile sketches, ...) plugs into every
// pipeline — including the incremental monitor — by implementing ModelClass
// alone. Pipelines are tuned through one functional-options vocabulary
// (WithParallelism, WithFocus, WithThreshold, WithWindow, ...).
//
// # Everything else
//
// Deviations can be decomposed and ranked with the structural operators
// (StructuralUnion, Rank, Top, ...); the model-only upper bound delta*
// (LitsUpperBound, UpperBoundMatrix, Embed) compares dataset collections
// without scans; the misclassification error and the chi-squared
// goodness-of-fit statistic arise as special cases
// (MisclassificationViaFOCUS, ChiSquared, ChiSquaredBootstrapTest).
//
// Synthetic data generators matching the paper's workloads live in
// internal/quest (market-basket) and internal/classgen (classification) and
// are exposed through the cmd/genquest and cmd/genclass tools; the full
// experiment harness regenerating every table and figure of the paper lives
// in cmd/experiments and the repo-root benchmarks.
//
// The deviation pipeline is parallel: dataset scans (Apriori support
// counting, GCR region measurement, rank-operator counting) shard their
// input across a worker pool and merge per-shard integer counts in
// deterministic shard order, so parallel results are bit-identical to the
// serial path. WithParallelism selects the worker count: 0 means the
// process default (GOMAXPROCS, overridable via SetParallelism or the CLIs'
// -parallelism flag), 1 forces the exact serial path, n >= 2 uses n
// workers.
//
// Lits-model support operations — mining, GCR measurement, bootstrap
// replicates and monitor windows — run on a vertical engine: per-item
// transaction bitsets (memoized per dataset) intersected with
// popcount-fused ANDs, mined depth-first. The engine makes one decision
// with no option to set: it runs wherever its index fits in memory, and
// the prefix-trie scan with levelwise Apriori runs only where it would
// not. The index holds NumItems × (24 B + 8·Words(|D|) B) — a set header
// and at most one |D|-bit bitset per item of the universe — which must
// stay under a 256 MiB cap, and the universe must hold at most 4 item ids
// per item occurrence of the data, so a few rows over a wide universe stay
// on the trie. The counts, and so every model and report, are
// bit-identical either way.
//
// The monitoring regime runs continuously through NewMonitor: batches enter
// a sliding or tumbling window whose model is maintained incrementally from
// mergeable per-batch count summaries, and every window advance emits the
// deviation against a pinned reference (or the previous window) —
// bit-identical to rebuilding the window's model from scratch — with
// optional threshold alerts and bootstrap qualification.
//
// Data enters the framework through streaming sources: a Source yields a
// dataset as successive batches decoded incrementally in bounded memory
// (TxnSource, CSVSource, JSONLSource, SliceSource, re-batched with
// Chunked), ReadCSV/ReadJSONL/ReadTxns are thin drains of the
// corresponding source, and Pump wires any source into a monitor.
// Monitors serialize intake, so any number of producers can feed one
// monitor concurrently. The serving layer built on top (internal/serve,
// command focusd) exposes a multi-tenant registry of named monitor
// sessions — create with a model class and reference, feed batches, read
// reports and alerts — as an HTTP/JSON API.
package focus

import (
	"context"
	"io"

	"focus/internal/apriori"
	"focus/internal/cluster"
	"focus/internal/core"
	"focus/internal/dataset"
	"focus/internal/dtree"
	"focus/internal/parallel"
	"focus/internal/region"
	"focus/internal/source"
	"focus/internal/stream"
	"focus/internal/txn"
)

// SetParallelism fixes the worker count selected by a parallelism of 0
// anywhere in the pipeline (WithParallelism(0), a zero Config.Parallelism,
// knob-less convenience functions). Passing n <= 0 restores the built-in default, GOMAXPROCS.
// Deviations are bit-identical for every setting; the knob trades wall-clock
// speed against CPU use.
func SetParallelism(n int) { parallel.SetDefault(n) }

// Difference and aggregate functions (Definition 3.7).
type (
	// DiffFunc is the difference function f(alpha1, alpha2, |D1|, |D2|).
	DiffFunc = core.DiffFunc
	// AggFunc is the aggregate function g.
	AggFunc = core.AggFunc
)

var (
	// AbsoluteDiff is f_a: |sigma1 - sigma2|.
	AbsoluteDiff DiffFunc = core.AbsoluteDiff
	// ScaledDiff is f_s: |sigma1 - sigma2| / ((sigma1 + sigma2)/2).
	ScaledDiff DiffFunc = core.ScaledDiff
	// Sum is g_sum.
	Sum AggFunc = core.Sum
	// Max is g_max.
	Max AggFunc = core.Max
)

// ChiSquaredDiff returns the difference function of Proposition 5.1 with
// zero-expectation constant c.
func ChiSquaredDiff(c float64) DiffFunc { return core.ChiSquaredDiff(c) }

// Dataset substrate.
type (
	// Schema fixes the attribute space A(I).
	Schema = dataset.Schema
	// Attribute is one dimension of the attribute space.
	Attribute = dataset.Attribute
	// Tuple is an n-tuple on I.
	Tuple = dataset.Tuple
	// Dataset is a finite set of tuples.
	Dataset = dataset.Dataset
	// Box is an axis-aligned region of the attribute space.
	Box = region.Box

	// TxnDataset is a market-basket dataset for lits-models.
	TxnDataset = txn.Dataset
	// Transaction is a sorted set of items.
	Transaction = txn.Transaction
	// Item identifies one item.
	Item = txn.Item
	// Itemset is a sorted set of items identifying a lits-model region.
	Itemset = apriori.Itemset
)

// FullRegion returns the box covering the whole attribute space of s.
func FullRegion(s *Schema) *Box { return region.Full(s) }

// FromTuples wraps tuples into a Dataset on s (sharing the slice) — the
// batch shape the unified monitor ingests.
func FromTuples(s *Schema, tuples []Tuple) *Dataset { return dataset.FromTuples(s, tuples) }

// FromTransactions wraps transactions into a TxnDataset over a universe of
// numItems items (sharing the slice) — the batch shape the unified monitor
// ingests.
func FromTransactions(numItems int, txns []Transaction) *TxnDataset {
	return &txn.Dataset{NumItems: numItems, Txns: txns}
}

// Models.
type (
	// LitsModel is a frequent-itemset model (Section 2.2).
	LitsModel = core.LitsModel
	// DTModel is a decision-tree model (Section 2.1).
	DTModel = core.DTModel
	// DTMeasures is the model induced by the PinnedDT class: a dataset's
	// measures over a pinned tree's leaf-by-class cells (Section 5.2).
	DTMeasures = core.DTMeasures
	// ClusterModel is a cluster model (Section 2.4).
	ClusterModel = core.ClusterModel
	// Tree is the underlying decision-tree classifier.
	Tree = dtree.Tree
	// TreeConfig controls decision-tree growth.
	TreeConfig = dtree.Config
	// Grid discretizes numeric attributes for cluster-models.
	Grid = cluster.Grid
	// GCRRegion is one region of a dt-model GCR overlay.
	GCRRegion = core.GCRRegion
)

// The generic ModelClass abstraction: one interface per instantiation, one
// pipeline for every class.
type (
	// ModelClass is the contract an instantiation of the framework
	// satisfies over datasets of type D and models of type M: induce a
	// model, measure the GCR of two models against two datasets, and seal
	// batches into mergeable summaries for streaming. Implement it to plug
	// a new model class into Deviation, Qualify, RankRegions and
	// NewMonitor.
	ModelClass[D, M any] = core.ModelClass[D, M]
	// ModelWindow is the streaming half of a ModelClass, one type for
	// every class: the live batches, each batch's count summary, their sum
	// and the row total, kept incrementally as batches enter and leave. A
	// class builds its windows with NewModelWindow.
	ModelWindow[D, M any] = core.Window[D, M]
	// MeasuredRegion is one GCR region's absolute measures in the two
	// datasets.
	MeasuredRegion = core.MeasuredRegion
	// Config is the unified options struct assembled by the With*
	// functional options.
	Config = core.Config
	// Option mutates a Config.
	Option = core.Option
	// RankedGCRRegion is one row of RankRegions.
	RankedGCRRegion = core.RankedGCRRegion
)

// NewModelWindow returns an empty window of class mc, for mc's NewWindow.
// summarize validates a batch and returns its count vector over the
// class's fixed cells; every batch of a window must yield a vector of one
// length and Concat with the others. induce induces the window's model
// from the window alone (its Counts and N), bit-identical to mc.Induce
// over its Data.
func NewModelWindow[D, M any](mc ModelClass[D, M], parallelism int, summarize func(d D, parallelism int) ([]int, error), induce func(w *ModelWindow[D, M]) (M, error)) *ModelWindow[D, M] {
	return core.NewWindow(mc, parallelism, summarize, induce)
}

// Lits returns the lits-model class: frequent itemsets mined by Apriori at
// the given minimum support (Section 2.2).
func Lits(minSupport float64) ModelClass[*TxnDataset, *LitsModel] { return core.Lits(minSupport) }

// DT returns the dt-model class: decision trees grown with cfg, compared
// over the overlay of their leaf partitions (Section 2.1, Definition 4.2).
func DT(cfg TreeConfig) ModelClass[*Dataset, *DTModel] { return core.DT(cfg) }

// PinnedDT returns the Section 5.2 monitoring instantiation: every model's
// structural component is the pinned tree's leaf-by-class cells, so the old
// model's structure is imposed on new data. It is the class the dt monitor
// streams through.
func PinnedDT(tree *Tree) ModelClass[*Dataset, *DTMeasures] { return core.PinnedDT(tree) }

// Cluster returns the cluster-model class: grid-based cluster regions over
// g at the given density threshold (Section 2.4).
func Cluster(g *Grid, minDensity float64) ModelClass[*Dataset, *ClusterModel] {
	return core.Cluster(g, minDensity)
}

// Functional options of the unified pipeline.

// WithParallelism selects the worker count (0 = process default, 1 = the
// exact serial path, n >= 2 = n workers); results are bit-identical for
// every setting.
func WithParallelism(n int) Option { return core.WithParallelism(n) }

// WithFocus restricts the deviation to a box region (Definition 5.2).
// Honoured by classes with box regions (DT); ignored elsewhere.
func WithFocus(b *Box) Option { return core.WithFocus(b) }

// WithFocusItemsets keeps only the GCR itemsets for which keep returns true
// (the Section 5 predicate operator in the lits domain).
func WithFocusItemsets(keep func(Itemset) bool) Option { return core.WithFocusItemsets(keep) }

// WithReplicates sets the bootstrap replicate count of Qualify.
func WithReplicates(n int) Option { return core.WithReplicates(n) }

// WithSeed makes the bootstrap deterministic.
func WithSeed(s int64) Option { return core.WithSeed(s) }

// WithExtension declares that d2 extends d1 (the Section 7 monitoring
// null); requires |D2| >= |D1|.
func WithExtension() Option { return core.WithExtension() }

// WithWindow sets the count-based window size of a monitor (sliding by
// default).
func WithWindow(batches int) Option { return core.WithWindow(batches) }

// WithTumbling makes the monitor window tumble instead of slide.
func WithTumbling() Option { return core.WithTumbling() }

// WithEpochWindow selects epoch-based window expiry: the window keeps the
// batches whose epoch lies in (current-w, current].
func WithEpochWindow(w int64) Option { return core.WithEpochWindow(w) }

// WithPreviousWindow compares monitor windows against the previous window
// instead of the pinned reference.
func WithPreviousWindow() Option { return core.WithPreviousWindow() }

// WithFunctions sets a monitor's difference and aggregate functions
// (default AbsoluteDiff, Sum).
func WithFunctions(f DiffFunc, g AggFunc) Option { return core.WithFunctions(f, g) }

// WithThreshold marks monitor reports at or above t as alerts.
func WithThreshold(t float64) Option { return core.WithThreshold(t) }

// WithAlert installs a monitor's synchronous alert callback.
func WithAlert(fn func(MonitorReport)) Option { return core.WithAlert(fn) }

// WithQualification bootstraps the significance of every monitor emission.
func WithQualification() Option { return core.WithQualification() }

// WithConfig replaces the whole configuration at once.
func WithConfig(c Config) Option { return core.WithConfig(c) }

// The unified pipelines.

// Deviation computes delta(f,g) between d1 and d2 through two models of one
// class (Definition 3.6): both models are extended to their GCR, every
// refined region is measured against both datasets (one parallel scan per
// dataset), and the per-region differences are aggregated.
func Deviation[D, M any](mc ModelClass[D, M], m1, m2 M, d1, d2 D, f DiffFunc, g AggFunc, opts ...Option) (float64, error) {
	return core.Deviation(mc, m1, m2, d1, d2, f, g, opts...)
}

// Qualify computes the deviation between d1 and d2 through freshly induced
// models of the class and its bootstrap significance (Section 3.4). It is
// the one qualification pipeline for every model class.
func Qualify[D, M any](mc ModelClass[D, M], d1, d2 D, f DiffFunc, g AggFunc, opts ...Option) (Qualification, error) {
	return core.Qualify(mc, d1, d2, f, g, opts...)
}

// RankRegions orders the GCR regions of two models by decreasing
// single-region deviation between d1 and d2 (the Section 5 rank operator
// generalized to every model class). Ties preserve the class's GCR region
// order.
func RankRegions[D, M any](mc ModelClass[D, M], m1, m2 M, d1, d2 D, f DiffFunc, opts ...Option) ([]RankedGCRRegion, error) {
	return core.RankRegions(mc, m1, m2, d1, d2, f, opts...)
}

// MineLits induces the lits-model of d at the given minimum support.
func MineLits(d *TxnDataset, minSupport float64) (*LitsModel, error) {
	return core.MineLits(d, minSupport)
}

// MineLitsP is MineLits with a parallelism knob (0 = the process default,
// 1 = the exact serial path): Apriori's per-pass support counting shards
// transactions across workers with a deterministic shard-order merge, so
// the model is bit-identical to the serial miner for every worker count.
func MineLitsP(d *TxnDataset, minSupport float64, parallelism int) (*LitsModel, error) {
	return core.MineLitsP(d, minSupport, parallelism)
}

// BuildDTModel induces a dt-model from a classification dataset.
func BuildDTModel(d *Dataset, cfg TreeConfig) (*DTModel, error) {
	return core.BuildDTModel(d, cfg)
}

// BuildDTModelP is BuildDTModel with a parallelism knob for the split
// search (0 = the process default, 1 = the exact serial path): per-node
// attribute searches run on parallel workers and merge deterministically,
// so the tree is bit-identical to the serial builder for every worker
// count.
func BuildDTModelP(d *Dataset, cfg TreeConfig, parallelism int) (*DTModel, error) {
	return core.BuildDTModelP(d, cfg, parallelism)
}

// NewGrid builds a clustering grid over numeric attributes of s.
func NewGrid(s *Schema, attrs []int, bins int) (*Grid, error) {
	return cluster.NewGrid(s, attrs, bins)
}

// BuildClusterModel induces a grid-based cluster-model from d.
func BuildClusterModel(d *Dataset, g *Grid, minDensity float64) (*ClusterModel, error) {
	return core.BuildClusterModel(d, g, minDensity)
}

// LitsUpperBound computes the model-only upper bound delta*(g) of
// Theorem 4.2 — no dataset scan required.
func LitsUpperBound(m1, m2 *LitsModel, g AggFunc) float64 {
	return core.LitsUpperBound(m1, m2, g)
}

// DTGCRRegions returns the GCR overlay of two dt-models.
func DTGCRRegions(m1, m2 *DTModel) ([]GCRRegion, error) {
	return core.DTGCRRegions(m1, m2)
}

// Qualification and monitoring (Sections 3.4 and 5.2).
type (
	// Qualification reports a deviation with its bootstrap significance.
	Qualification = core.Qualification
	// ChiSquaredTestResult reports the bootstrap goodness-of-fit test.
	ChiSquaredTestResult = core.ChiSquaredTestResult
)

// MisclassificationViaFOCUS computes ME_T(D2) as half the FOCUS deviation
// between D2 and the predicted dataset D2^T (Theorem 5.2).
func MisclassificationViaFOCUS(t *Tree, d2 *Dataset) (float64, error) {
	return core.MisclassificationViaFOCUS(t, d2)
}

// ChiSquared computes the chi-squared statistic of Proposition 5.1 over the
// tree's cells.
func ChiSquared(t *Tree, d1, d2 *Dataset, c float64) (float64, error) {
	return core.ChiSquared(t, d1, d2, c)
}

// ChiSquaredBootstrapTest runs the goodness-of-fit test with a
// bootstrap-estimated exact null distribution (Section 5.2.2). cfg is the
// tree-growing configuration used on each null resample, mirroring how t was
// built.
func ChiSquaredBootstrapTest(t *Tree, cfg TreeConfig, d1, d2 *Dataset, c float64, replicates int, seed int64) (ChiSquaredTestResult, error) {
	return core.ChiSquaredBootstrapTest(t, cfg, d1, d2, c, replicates, seed)
}

// Structural and rank operators (Section 5).
type (
	// RankedRegion is a region with its deviation.
	RankedRegion = core.RankedRegion
	// RankedItemset is an itemset with its deviation and supports.
	RankedItemset = core.RankedItemset
)

// StructuralUnion is the ⊔ operator (GCR) on box region sets.
func StructuralUnion(p1, p2 []*Box) []*Box { return core.StructuralUnion(p1, p2) }

// StructuralIntersection is the ⊓ operator on box region sets.
func StructuralIntersection(p1, p2 []*Box) []*Box { return core.StructuralIntersection(p1, p2) }

// StructuralDifference is the − operator on box region sets.
func StructuralDifference(p1, p2 []*Box) []*Box { return core.StructuralDifference(p1, p2) }

// Rank orders box regions by decreasing deviation between d1 and d2.
func Rank(regions []*Box, d1, d2 *Dataset, f DiffFunc) []RankedRegion {
	return core.Rank(regions, d1, d2, f)
}

// Top selects the first n ranked regions.
func Top(ranked []RankedRegion, n int) []RankedRegion { return core.Top(ranked, n) }

// ItemsetUnion is the ⊔ operator (GCR) on lits structural components.
func ItemsetUnion(p1, p2 []Itemset) []Itemset { return core.ItemsetUnion(p1, p2) }

// RankItemsets orders itemsets by decreasing deviation between d1 and d2.
func RankItemsets(sets []Itemset, d1, d2 *TxnDataset, f DiffFunc) []RankedItemset {
	return core.RankItemsets(sets, d1, d2, f)
}

// TopItemsets selects the first n ranked itemsets.
func TopItemsets(ranked []RankedItemset, n int) []RankedItemset {
	return core.TopItemsets(ranked, n)
}

// Streaming sources: data enters the framework as a Source — successive
// batches decoded incrementally in bounded memory — rather than as one
// in-memory slurp. Sources feed monitors through Pump and back the focusd
// serving layer.
type (
	// Source yields a dataset as successive batches of type D: Next
	// returns the next batch, io.EOF after the last. Sources are not safe
	// for concurrent use; monitors are, so fan-in happens at the monitor.
	Source[D any] = source.Source[D]
	// SourceFunc adapts a function to a Source.
	SourceFunc[D any] = source.Func[D]
	// Sliceable constrains the batch types Chunked can split and join;
	// both Dataset and TxnDataset satisfy it.
	Sliceable[D any] = source.Sliceable[D]
)

// SliceSource returns a Source yielding the given in-memory batches in
// order.
func SliceSource[D any](batches ...D) Source[D] { return source.Slice(batches...) }

// Chunked re-batches src into batches of exactly batchRows rows (the final
// batch may be smaller), decoupling a decoder's read granularity from the
// monitor's batch granularity.
func Chunked[D Sliceable[D]](src Source[D], batchRows int) Source[D] {
	return source.Chunked(src, batchRows)
}

// TxnSource returns a streaming decoder of the line-oriented transaction
// format: batches of validated transactions in bounded memory, with line
// numbers preserved in errors.
func TxnSource(r io.Reader) Source[*TxnDataset] { return txn.NewSource(r) }

// CSVSource returns a streaming decoder of CSV data on schema s: batches of
// validated tuples in bounded memory, failing at the first malformed row
// with its line number.
func CSVSource(r io.Reader, s *Schema) Source[*Dataset] { return dataset.NewCSVSource(r, s) }

// JSONLSource returns a streaming decoder of JSON Lines data on schema s:
// one object per line mapping attribute names to values (numbers for
// numeric attributes, value names for categorical ones).
func JSONLSource(r io.Reader, s *Schema) Source[*Dataset] { return dataset.NewJSONLSource(r, s) }

// ReadCSV reads a whole dataset by draining a CSVSource; the result is
// identical to collecting the source's batches.
func ReadCSV(r io.Reader, s *Schema) (*Dataset, error) { return dataset.ReadCSV(r, s) }

// ReadJSONL reads a whole dataset by draining a JSONLSource.
func ReadJSONL(r io.Reader, s *Schema) (*Dataset, error) { return dataset.ReadJSONL(r, s) }

// ReadTxns reads a whole transaction dataset by draining a TxnSource; the
// result is identical to collecting the source's batches.
func ReadTxns(r io.Reader) (*TxnDataset, error) { return txn.Read(r) }

// Pump drains src into the monitor: every batch is ingested in order until
// the source is exhausted (io.EOF), the context is cancelled, or an error
// occurs. It returns the number of batches ingested. Monitors serialize
// intake, so any number of Pump goroutines can feed one monitor.
func Pump[D, M any](ctx context.Context, src Source[D], m *Monitor[D, M]) (int, error) {
	return stream.Pump(ctx, src, m)
}

// Streaming monitors (the monitoring regime of Section 5.2 run
// continuously over a stream of batches).
type (
	// Monitor is an incremental windowed deviation monitor over batch
	// datasets of D through models of M. Batches enter a sliding or
	// tumbling window whose model is maintained incrementally from
	// mergeable per-batch summaries — window advance subtracts the expired
	// batch and adds the new one instead of rescanning — and every advance
	// emits the deviation of the window against a pinned reference model
	// (or the previous window), bit-identical to rebuilding the window's
	// model from scratch.
	Monitor[D, M any] = stream.Monitor[D, M]
	// MonitorReport is one emission of a Monitor.
	MonitorReport = stream.Report
)

// NewMonitor creates the unified incremental monitor for any model class:
// every ingested batch dataset is sealed into a mergeable summary, the
// window advances by subtract-expired/add-new, and each advance emits the
// deviation of the window's model from the reference model induced over
// ref. ref may be nil with WithPreviousWindow, in which case the first
// complete window becomes the initial reference.
func NewMonitor[D, M any](mc ModelClass[D, M], ref D, opts ...Option) (*Monitor[D, M], error) {
	return stream.New(mc, ref, core.NewConfig(opts...))
}

// UpperBoundMatrix returns pairwise delta*(g) distances over a collection of
// lits-models — no dataset scans (Section 4.1.1).
func UpperBoundMatrix(models []*LitsModel, g AggFunc) [][]float64 {
	return core.UpperBoundMatrix(models, g)
}

// Embed places a symmetric distance matrix (e.g. from UpperBoundMatrix) into
// dims dimensions by classical multidimensional scaling, for visually
// comparing a collection of datasets (Section 4.1.1).
func Embed(distances [][]float64, dims int) ([][]float64, error) {
	return core.Embed(distances, dims)
}
