package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"focus/internal/cluster"
	"focus/internal/core"
	"focus/internal/dataset"
	"focus/internal/dtree"
	"focus/internal/quest"
	"focus/internal/serve"
	"focus/internal/stream"
	"focus/internal/txn"
)

// Every session uses the same window and emission policy: a sliding
// window of four batches, so every feed emits a report and the report's
// seq records the order in which the member applied the feeds.
const (
	window    = 4
	threshold = 0.25
)

// batch is one generated feed request body, {"rows": [...]}. Only the
// bytes are kept while the load runs, so that the generator's own heap
// stays small beside the members'; the reference monitor and the layer
// probes decode the rows again afterwards.
type batch struct{ body []byte }

const rowsPrefix = `{"rows":`

func newBatch(rows []byte) *batch {
	return &batch{body: append(append([]byte(rowsPrefix), rows...), '}')}
}

// rows returns the wire rows inside the body.
func (b *batch) rows() json.RawMessage { return b.body[len(rowsPrefix) : len(b.body)-1] }

// session is one monitor session of a serving workload together with
// everything the benchmark needs to drive and check it.
type session struct {
	name    string
	cfg     serve.SessionConfig
	create  []byte
	batches []*batch
	// newRef builds an in-process stream.Monitor configured like the
	// session; it must emit the member's reports bit for bit.
	newRef func(tr *Tracer) (*refMonitor, error)
	// layers calls the session kind's own layer functions (decode, grid
	// counts, window induction and measurement, mining, bootstrap) on
	// the given batches, beside the members.
	layers func(tr *Tracer, batches []*batch) error
}

// refMonitor is a type-erased reference monitor.
type refMonitor struct {
	ingest  func(b *batch) (*stream.Report, error)
	windowN func() int
}

// monitorConfig mirrors the member's monitor configuration of cfg.
func monitorConfig(cfg *serve.SessionConfig) core.Config {
	return core.Config{
		F:             core.AbsoluteDiff,
		G:             core.Sum,
		Parallelism:   cfg.Parallelism,
		WindowBatches: cfg.Window,
		Threshold:     cfg.Threshold,
		Qualify:       cfg.Qualify,
		Replicates:    cfg.Replicates,
		Seed:          cfg.Seed,
	}
}

func newRef[D, M any](mc core.ModelClass[D, M], ref D, cfg *serve.SessionConfig, decode func(*batch) (D, error), tr *Tracer) (*refMonitor, error) {
	var mon *stream.Monitor[D, M]
	var err error
	tr.Time("stream.new", func() { mon, err = stream.New(mc, ref, monitorConfig(cfg)) })
	if err != nil {
		return nil, err
	}
	return &refMonitor{
		ingest: func(b *batch) (*stream.Report, error) {
			d, err := decode(b)
			if err != nil {
				return nil, err
			}
			var rep *stream.Report
			tr.Time("stream.ingest", func() { rep, err = mon.Ingest(d) })
			return rep, err
		},
		windowN: mon.WindowN,
	}, nil
}

// wireReport renders a reference report the way a member reports it.
func wireReport(rep *stream.Report) serve.ReportJSON {
	out := serve.ReportJSON{
		Seq:       rep.Seq,
		Epoch:     rep.Epoch,
		Batches:   rep.Batches,
		N:         rep.N,
		RefN:      rep.RefN,
		Regions:   rep.Regions,
		Deviation: rep.Deviation,
		Alert:     rep.Alert,
	}
	if rep.Qual != nil {
		sig := rep.Qual.Significance
		out.Significance = &sig
	}
	return out
}

// sameReport compares two reports field by field, floats bit for bit.
func sameReport(a, b serve.ReportJSON) bool {
	if a.Seq != b.Seq || a.Epoch != b.Epoch || a.Batches != b.Batches || a.N != b.N ||
		a.RefN != b.RefN || a.Regions != b.Regions || a.Alert != b.Alert ||
		math.Float64bits(a.Deviation) != math.Float64bits(b.Deviation) {
		return false
	}
	if (a.Significance == nil) != (b.Significance == nil) {
		return false
	}
	return a.Significance == nil || math.Float64bits(*a.Significance) == math.Float64bits(*b.Significance)
}

// tupleRows renders a tuple dataset as wire rows: the JSON Lines rows of
// WriteJSONL as one array, which a member decodes bit-identically. It
// also returns the JSON Lines form.
func tupleRows(d *dataset.Dataset) (json.RawMessage, []byte, error) {
	var b bytes.Buffer
	if err := d.WriteJSONL(&b); err != nil {
		return nil, nil, err
	}
	jsonl := b.Bytes()
	rows := append([]byte{'['}, bytes.ReplaceAll(bytes.TrimRight(jsonl, "\n"), []byte{'\n'}, []byte{','})...)
	return append(rows, ']'), jsonl, nil
}

// tupleDecoder decodes wire rows with the dataset layer's row decoder,
// as a member does.
func tupleDecoder(schema *dataset.Schema) func(*batch) (*dataset.Dataset, error) {
	td := dataset.NewTupleDecoder(schema)
	return func(b *batch) (*dataset.Dataset, error) {
		var rows []json.RawMessage
		if err := json.Unmarshal(b.rows(), &rows); err != nil {
			return nil, err
		}
		d := dataset.New(schema)
		for _, r := range rows {
			t, err := td.Decode(r)
			if err != nil {
				return nil, err
			}
			d.Tuples = append(d.Tuples, t)
		}
		return d, nil
	}
}

// tupleSession finishes a cluster or dt session: it generates the
// reference and the batches with gen (whose second argument is the
// batch's drift position) and wires the reference monitor and the layer
// probes of the model class mc builds from the reference. extra runs the
// kind's own layer probe on each decoded batch.
func tupleSession[M any](cfg serve.SessionConfig, schema *dataset.Schema, gen func(n int, s float64) *dataset.Dataset,
	refRows, batchRows, nBatches int, dr drift, mc func(ref *dataset.Dataset, tr *Tracer) (core.ModelClass[*dataset.Dataset, M], error),
	extra func(tr *Tracer, d *dataset.Dataset)) (*session, error) {
	ref := gen(refRows, 0)
	refWire, _, err := tupleRows(ref)
	if err != nil {
		return nil, err
	}
	cfg.Window, cfg.Threshold, cfg.Reference = window, threshold, refWire
	s := &session{name: cfg.Name, cfg: cfg}
	for k := 0; k < nBatches; k++ {
		rows, _, err := tupleRows(gen(batchRows, dr.at(k)))
		if err != nil {
			return nil, err
		}
		s.batches = append(s.batches, newBatch(rows))
	}
	decode := tupleDecoder(schema)
	s.newRef = func(tr *Tracer) (*refMonitor, error) {
		c, err := mc(ref, tr)
		if err != nil {
			return nil, err
		}
		return newRef(c, ref, &s.cfg, decode, tr)
	}
	s.layers = func(tr *Tracer, batches []*batch) error {
		c, err := mc(ref, newTracer(false))
		if err != nil {
			return err
		}
		var ds []*dataset.Dataset
		for _, b := range batches {
			d, err := decode(b)
			if err != nil {
				return err
			}
			_, jsonl, err := tupleRows(d)
			if err != nil {
				return err
			}
			tr.Time("dataset.decode", func() { _, err = dataset.ReadJSONL(bytes.NewReader(jsonl), schema) })
			if err != nil {
				return fmt.Errorf("decoding batch rows: %w", err)
			}
			extra(tr, d)
			ds = append(ds, d)
		}
		return windowLayers(tr, c, ref, ds)
	}
	return s, s.finish()
}

// clamp keeps a generated coordinate inside the [0,100] attribute domain.
func clamp(v float64) float64 { return math.Max(0, math.Min(100, v)) }

// drift is a batch's position on its session's drift cycle, in
// [-1, 1].
type drift struct{ period, phase float64 }

// sessionShape is the source of session idx's fixed shape: its drift
// cycle and, for a dt session, its class boundary. Like the lits
// sessions' pattern tables it depends on the session index only, so the
// seed changes the rows drawn but not how costly a session's windows are
// to model, which would otherwise move set-up and feed cost with the
// seed.
func sessionShape(idx int) *rand.Rand { return rand.New(rand.NewSource(int64(idx))) }

func newDrift(rng *rand.Rand) drift {
	return drift{period: 24 + 40*rng.Float64(), phase: 2 * math.Pi * rng.Float64()}
}

func (d drift) at(k int) float64 { return math.Sin(2*math.Pi*float64(k)/d.period + d.phase) }

var xyAttrs = []serve.AttributeJSON{
	{Name: "x", Kind: "numeric", Min: 0, Max: 100},
	{Name: "y", Kind: "numeric", Min: 0, Max: 100},
}

// clusterSession is a 2-D grid cluster session over a seeded mixture of
// three Gaussian blobs whose centres drift batch by batch.
func clusterSession(name string, idx int, rng *rand.Rand, refRows, batchRows, nBatches int) (*session, error) {
	sj := &serve.SchemaJSON{Attrs: xyAttrs}
	schema, err := sj.Schema()
	if err != nil {
		return nil, err
	}
	var centres [3][2]float64
	for i := range centres {
		centres[i] = [2]float64{20 + 60*rng.Float64(), 20 + 60*rng.Float64()}
	}
	shift := [2]float64{30 * (rng.Float64() - 0.5), 30 * (rng.Float64() - 0.5)}
	dr := newDrift(sessionShape(idx))
	gen := func(n int, s float64) *dataset.Dataset {
		d := dataset.New(schema)
		for i := 0; i < n; i++ {
			c := centres[rng.Intn(len(centres))]
			d.Tuples = append(d.Tuples, dataset.Tuple{
				clamp(c[0] + s*shift[0] + 8*rng.NormFloat64()),
				clamp(c[1] + s*shift[1] + 8*rng.NormFloat64()),
			})
		}
		return d
	}
	cfg := serve.SessionConfig{Name: name, Model: "cluster", Schema: sj,
		GridAttrs: []string{"x", "y"}, GridBins: 8, MinDensity: 0.02}
	grid, err := cluster.NewGrid(schema, []int{0, 1}, cfg.GridBins)
	if err != nil {
		return nil, err
	}
	mc := func(*dataset.Dataset, *Tracer) (core.ModelClass[*dataset.Dataset, *core.ClusterModel], error) {
		return core.Cluster(grid, cfg.MinDensity), nil
	}
	cells := func(tr *Tracer, d *dataset.Dataset) {
		tr.Time("cluster.cellcounts", func() { cluster.CellCounts(d, grid, 1) })
	}
	return tupleSession(cfg, schema, gen, refRows, batchRows, nBatches, dr, mc, cells)
}

// dtSession is a pinned-dt session over two numeric attributes and a
// binary class whose boundary is a sine wave; the tree is grown from the
// reference at create, and the boundary drifts batch by batch.
func dtSession(name string, idx int, rng *rand.Rand, refRows, batchRows, nBatches int) (*session, error) {
	sj := &serve.SchemaJSON{
		Attrs: append(append([]serve.AttributeJSON(nil), xyAttrs...),
			serve.AttributeJSON{Name: "class", Kind: "categorical", Values: []string{"A", "B"}}),
		Class: "class",
	}
	schema, err := sj.Schema()
	if err != nil {
		return nil, err
	}
	shape := sessionShape(idx)
	dr := newDrift(shape)
	freq := 10 + 10*shape.Float64()
	gen := func(n int, s float64) *dataset.Dataset {
		d := dataset.New(schema)
		for i := 0; i < n; i++ {
			x, y := 100*rng.Float64(), 100*rng.Float64()
			class := 0.0
			if y > 50+20*math.Sin(x/freq+1.5*s) {
				class = 1
			}
			if rng.Float64() < 0.05 {
				class = 1 - class
			}
			d.Tuples = append(d.Tuples, dataset.Tuple{x, y, class})
		}
		return d
	}
	cfg := serve.SessionConfig{Name: name, Model: "dt", Schema: sj}
	// The member grows the pinned tree from the reference at create; the
	// reference monitor grows the same tree.
	mc := func(ref *dataset.Dataset, tr *Tracer) (core.ModelClass[*dataset.Dataset, *core.DTMeasures], error) {
		var tree *dtree.Tree
		var err error
		tr.Time("dtree.build", func() { tree, err = dtree.BuildP(ref, dtree.Config{}, cfg.Parallelism) })
		if err != nil {
			return nil, err
		}
		tr.Count("dtree.leaves", int64(tree.NumLeaves()))
		return core.PinnedDT(tree), nil
	}
	return tupleSession(cfg, schema, gen, refRows, batchRows, nBatches, dr, mc, func(*Tracer, *dataset.Dataset) {})
}

// litsGen returns a QUEST generator over a 500-item universe.
func litsGen(seed int64, patLen float64) (*quest.Generator, error) {
	cfg := quest.DefaultConfig(0)
	cfg.NumItems = 500
	cfg.NumPatterns = 3000
	cfg.AvgTxnLen = 6
	cfg.AvgPatternLen = patLen
	cfg.Seed = seed
	return quest.NewGenerator(cfg)
}

// litsPopulation is how many transactions each fixed QUEST process of a
// lits session holds; batches are dealt from it with the run's seed.
const litsPopulation = 4096

// deck deals a population's transactions in seeded random order without
// replacement, reshuffling when it runs out, so that no window of a few
// batches holds one transaction twice. A one-batch window is mined at an
// absolute support of two or three transactions, so a long transaction
// drawn twice there would make every one of its 2^len subsets frequent.
type deck struct {
	pop   []txn.Transaction
	order []int
	next  int
	rng   *rand.Rand
}

func newDeck(pop *txn.Dataset, rng *rand.Rand) *deck { return &deck{pop: pop.Txns, rng: rng} }

// deal returns the next n transactions of the deck.
func (d *deck) deal(n int) []txn.Transaction {
	out := make([]txn.Transaction, 0, n)
	for len(out) < n {
		if d.next == len(d.order) {
			d.order, d.next = d.rng.Perm(len(d.pop)), 0
		}
		out = append(out, d.pop[d.order[d.next]])
		d.next++
	}
	return out
}

// litsSession is a lits session whose batches blend transactions dealt
// from a base QUEST process with ones dealt from a process of longer
// patterns, in a cycling proportion. The processes are fixed per session
// index, so the seed changes the draws but not how costly the session's
// data is to mine.
func litsSession(name string, idx int, rng *rand.Rand, minSupport float64, qualify bool, refRows, batchRows, nBatches int) (*session, error) {
	baseGen, err := litsGen(int64(1000+2*idx), 4)
	if err != nil {
		return nil, err
	}
	driftGen, err := litsGen(int64(1001+2*idx), 5)
	if err != nil {
		return nil, err
	}
	base, drifted := baseGen.GenerateN(litsPopulation), driftGen.GenerateN(litsPopulation)
	dr := newDrift(sessionShape(idx))
	baseDeck, driftDeck := newDeck(base, rng), newDeck(drifted, rng)
	ref := &txn.Dataset{NumItems: base.NumItems, Txns: baseDeck.deal(refRows)}
	refWire, err := json.Marshal(ref.Txns)
	if err != nil {
		return nil, err
	}
	s := &session{name: name, cfg: serve.SessionConfig{
		Name: name, Model: "lits", NumItems: ref.NumItems, MinSupport: minSupport,
		Window: window, Threshold: threshold, Reference: refWire,
	}}
	if qualify {
		// A qualified feed's bootstrap runs on one worker, so it holds one
		// CPU rather than every CPU for its ~10ms and the other sessions'
		// feeds keep flowing beside it.
		s.cfg.Qualify, s.cfg.Replicates, s.cfg.Seed, s.cfg.Parallelism = true, 19, rng.Int63n(1000), 1
	}
	for k := 0; k < nBatches; k++ {
		m := int(math.Round(float64(batchRows) * (0.5 + 0.5*dr.at(k))))
		rows, err := json.Marshal(append(baseDeck.deal(batchRows-m), driftDeck.deal(m)...))
		if err != nil {
			return nil, err
		}
		s.batches = append(s.batches, newBatch(rows))
	}
	// A member decodes item-id rows and normalizes each transaction.
	decode := func(b *batch) (*txn.Dataset, error) {
		var rows []txn.Transaction
		if err := json.Unmarshal(b.rows(), &rows); err != nil {
			return nil, err
		}
		d := txn.New(ref.NumItems)
		for _, t := range rows {
			d.Txns = append(d.Txns, t.Normalize())
		}
		return d, nil
	}
	mc := core.Lits(minSupport)
	s.newRef = func(tr *Tracer) (*refMonitor, error) {
		return newRef(mc, ref, &s.cfg, decode, tr)
	}
	s.layers = func(tr *Tracer, batches []*batch) error {
		var ds []*txn.Dataset
		for _, b := range batches {
			d, err := decode(b)
			if err != nil {
				return err
			}
			var text bytes.Buffer
			if err := d.Write(&text); err != nil {
				return err
			}
			tr.Time("txn.decode", func() { _, err = txn.Read(&text) })
			if err != nil {
				return err
			}
			ds = append(ds, d)
		}
		if err := windowLayers(tr, mc, ref, ds); err != nil {
			return err
		}
		return litsEngineLayers(tr, mc, ref, ds, &s.cfg)
	}
	return s, s.finish()
}

// finish renders the create body.
func (s *session) finish() error {
	var err error
	s.create, err = json.Marshal(&s.cfg)
	return err
}

// windowLayers slides a ModelClass window over batches the way the
// monitor does and times Window.Induce and MeasureGCRWindows against the
// reference window.
func windowLayers[D, M any](tr *Tracer, mc core.ModelClass[D, M], ref D, batches []D) error {
	live, err := mc.NewWindow(1)
	if err != nil {
		return err
	}
	refWin := live.Clone()
	if err := refWin.Add(ref, 1); err != nil {
		return err
	}
	refModel, err := refWin.Induce()
	if err != nil {
		return err
	}
	for _, b := range batches {
		if err := live.Add(b, 1); err != nil {
			return err
		}
		for live.Batches() > window {
			live.RemoveFront()
		}
		var cur M
		tr.Time("core.window_induce", func() { cur, err = live.Induce() })
		if err != nil {
			return err
		}
		var regions []core.MeasuredRegion
		tr.Time("core.measure_gcr", func() { regions, err = mc.MeasureGCRWindows(refModel, cur, refWin, live) })
		if err != nil {
			return err
		}
		tr.Count("core.gcr_regions", int64(len(regions)))
		tr.Count("core.gcr_measures", 1)
	}
	return nil
}
