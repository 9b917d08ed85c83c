// Command focus computes the FOCUS deviation between two datasets and,
// optionally, its bootstrap significance.
//
// Market-basket mode (lits-models):
//
//	focus -model lits -minsup 0.01 -f fa -g sum store1.txns store2.txns
//
// Classification mode (dt-models), over CSV files produced by genclass:
//
//	focus -model dt -f fa -g sum -qualify people1.csv people2.csv
//
// Cluster mode (grid-based cluster-models), over the same CSV files:
//
//	focus -model cluster -attrs salary,age -bins 8 -mindensity 0.02 people1.csv people2.csv
//
// Follow mode replays the second file as a stream of batches through an
// incremental windowed monitor pinned on the first file, printing one
// deviation report per batch (and ALERT markers past -threshold):
//
//	focus -model dt -follow -batch 500 -window 4 -threshold 0.2 train.csv stream.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"focus/internal/apriori"
	"focus/internal/classgen"
	"focus/internal/cluster"
	"focus/internal/core"
	"focus/internal/dataset"
	"focus/internal/dtree"
	"focus/internal/parallel"
	"focus/internal/stats"
	"focus/internal/stream"
	"focus/internal/txn"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "focus:", err)
		os.Exit(1)
	}
}

// config holds the parsed flags of one invocation.
type config struct {
	model       string
	minsup      float64
	fName       string
	gName       string
	qualify     bool
	replicates  int
	seed        int64
	maxDepth    int
	minLeaf     int
	showBound   bool
	par         int
	counterName string
	counter     apriori.Counter

	attrs      string
	bins       int
	minDensity float64

	follow    bool
	batch     int
	window    int
	tumbling  bool
	prev      bool
	threshold float64

	f core.DiffFunc
	g core.AggFunc
}

// run executes one focus invocation, writing its report to stdout. It is
// the testable core of main: the golden-file tests drive it directly.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("focus", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.model, "model", "lits", "model class: lits, dt or cluster")
	fs.Float64Var(&cfg.minsup, "minsup", 0.01, "minimum support for lits-models")
	fs.StringVar(&cfg.fName, "f", "fa", "difference function: fa (absolute) or fs (scaled)")
	fs.StringVar(&cfg.gName, "g", "sum", "aggregate function: sum or max")
	fs.BoolVar(&cfg.qualify, "qualify", false, "bootstrap the significance of the deviation")
	fs.IntVar(&cfg.replicates, "replicates", stats.DefaultBootstrapReplicates, "bootstrap replicates")
	fs.Int64Var(&cfg.seed, "seed", 1, "bootstrap seed")
	fs.IntVar(&cfg.maxDepth, "maxdepth", 10, "decision tree depth limit")
	fs.IntVar(&cfg.minLeaf, "minleaf", 25, "decision tree minimum leaf size")
	fs.BoolVar(&cfg.showBound, "bound", false, "also print the delta* upper bound (lits only)")
	fs.IntVar(&cfg.par, "parallelism", 0, "worker count for scans and bootstrap (0 = GOMAXPROCS, 1 = serial)")
	fs.StringVar(&cfg.counterName, "counter", "auto", "lits counting backend: auto, trie or bitmap (bit-identical output)")
	fs.StringVar(&cfg.attrs, "attrs", "salary,age", "cluster grid attributes (comma-separated numeric attribute names)")
	fs.IntVar(&cfg.bins, "bins", 8, "cluster grid bins per attribute")
	fs.Float64Var(&cfg.minDensity, "mindensity", 0.02, "cluster minimum cell density")
	fs.BoolVar(&cfg.follow, "follow", false, "replay DATASET2 as a stream of batches monitored against DATASET1")
	fs.IntVar(&cfg.batch, "batch", 1000, "records per batch in follow mode")
	fs.IntVar(&cfg.window, "window", 4, "batches per window in follow mode")
	fs.BoolVar(&cfg.tumbling, "tumbling", false, "tumble the follow-mode window instead of sliding it")
	fs.BoolVar(&cfg.prev, "prev", false, "compare follow-mode windows against the previous window instead of DATASET1")
	fs.Float64Var(&cfg.threshold, "threshold", 0, "mark follow-mode reports at or above this deviation as ALERT")
	if err := fs.Parse(args); err != nil {
		return err
	}
	parallel.SetDefault(cfg.par)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: focus [flags] DATASET1 DATASET2")
		fs.PrintDefaults()
		return errors.New("expected exactly two dataset arguments")
	}
	var err error
	cfg.f, err = core.DiffByName(cfg.fName)
	if err != nil {
		return err
	}
	cfg.g, err = core.AggByName(cfg.gName)
	if err != nil {
		return err
	}
	cfg.counter, err = apriori.ParseCounter(cfg.counterName)
	if err != nil {
		return err
	}

	switch cfg.model {
	case "lits":
		if cfg.follow {
			return runLitsFollow(&cfg, fs.Arg(0), fs.Arg(1), stdout)
		}
		return runLits(&cfg, fs.Arg(0), fs.Arg(1), stdout)
	case "dt":
		if cfg.follow {
			return runDTFollow(&cfg, fs.Arg(0), fs.Arg(1), stdout)
		}
		return runDT(&cfg, fs.Arg(0), fs.Arg(1), stdout)
	case "cluster":
		if cfg.follow {
			return runClusterFollow(&cfg, fs.Arg(0), fs.Arg(1), stdout)
		}
		return runCluster(&cfg, fs.Arg(0), fs.Arg(1), stdout)
	default:
		return fmt.Errorf("unknown model class %q (want lits, dt or cluster)", cfg.model)
	}
}

// qualifyOptions assembles the unified bootstrap options shared by every
// batch mode.
func qualifyOptions(cfg *config) []core.Option {
	return []core.Option{core.WithReplicates(cfg.replicates), core.WithSeed(cfg.seed)}
}

// dtConfig assembles the tree-growth configuration shared by the dt batch
// and follow modes.
func dtConfig(cfg *config) dtree.Config {
	return dtree.Config{MaxDepth: cfg.maxDepth, MinLeaf: cfg.minLeaf}
}

func runLits(cfg *config, path1, path2 string, w io.Writer) error {
	d1, err := readTxns(path1)
	if err != nil {
		return err
	}
	d2, err := readTxns(path2)
	if err != nil {
		return err
	}
	mc := core.LitsWithCounter(cfg.minsup, cfg.counter)
	m1, err := mc.Induce(d1, 0)
	if err != nil {
		return err
	}
	m2, err := mc.Induce(d2, 0)
	if err != nil {
		return err
	}
	dev, err := core.Deviation(mc, m1, m2, d1, d2, cfg.f, cfg.g)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "lits-models: |L1|=%d |L2|=%d minsup=%g\n", m1.Len(), m2.Len(), cfg.minsup)
	fmt.Fprintf(w, "deviation delta(%s,%s) = %.6f\n", cfg.fName, cfg.gName, dev)
	if cfg.showBound {
		fmt.Fprintf(w, "upper bound delta*(%s) = %.6f (no dataset scan)\n", cfg.gName, core.LitsUpperBound(m1, m2, cfg.g))
	}
	if cfg.qualify {
		q, err := core.Qualify(mc, d1, d2, cfg.f, cfg.g, qualifyOptions(cfg)...)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "significance sig(delta) = %.1f%% (bootstrap, %d replicates)\n", q.Significance, len(q.Null))
	}
	return nil
}

func runDT(cfg *config, path1, path2 string, w io.Writer) error {
	schema := classgen.Schema()
	d1, err := readCSV(path1, schema)
	if err != nil {
		return err
	}
	d2, err := readCSV(path2, schema)
	if err != nil {
		return err
	}
	mc := core.DT(dtConfig(cfg))
	m1, err := mc.Induce(d1, 0)
	if err != nil {
		return err
	}
	m2, err := mc.Induce(d2, 0)
	if err != nil {
		return err
	}
	dev, err := core.Deviation(mc, m1, m2, d1, d2, cfg.f, cfg.g)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "dt-models: %d and %d leaves\n", m1.Tree.NumLeaves(), m2.Tree.NumLeaves())
	fmt.Fprintf(w, "deviation delta(%s,%s) = %.6f\n", cfg.fName, cfg.gName, dev)
	if cfg.qualify {
		q, err := core.Qualify(mc, d1, d2, cfg.f, cfg.g, qualifyOptions(cfg)...)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "significance sig(delta) = %.1f%% (bootstrap, %d replicates)\n", q.Significance, len(q.Null))
	}
	return nil
}

func runCluster(cfg *config, path1, path2 string, w io.Writer) error {
	schema := classgen.Schema()
	grid, err := gridFromFlags(cfg, schema)
	if err != nil {
		return err
	}
	d1, err := readCSV(path1, schema)
	if err != nil {
		return err
	}
	d2, err := readCSV(path2, schema)
	if err != nil {
		return err
	}
	mc := core.Cluster(grid, cfg.minDensity)
	m1, err := mc.Induce(d1, 0)
	if err != nil {
		return err
	}
	m2, err := mc.Induce(d2, 0)
	if err != nil {
		return err
	}
	dev, err := core.Deviation(mc, m1, m2, d1, d2, cfg.f, cfg.g)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cluster-models: %d and %d clusters over %s (%d bins, mindensity %g)\n",
		m1.NumClusters(), m2.NumClusters(), cfg.attrs, cfg.bins, cfg.minDensity)
	fmt.Fprintf(w, "deviation delta(%s,%s) = %.6f\n", cfg.fName, cfg.gName, dev)
	if cfg.qualify {
		// Cluster-model qualification exists only through the unified
		// pipeline: the per-class API never had it.
		q, err := core.Qualify(mc, d1, d2, cfg.f, cfg.g, qualifyOptions(cfg)...)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "significance sig(delta) = %.1f%% (bootstrap, %d replicates)\n", q.Significance, len(q.Null))
	}
	return nil
}

func gridFromFlags(cfg *config, schema *dataset.Schema) (*cluster.Grid, error) {
	var attrs []int
	for _, name := range strings.Split(cfg.attrs, ",") {
		name = strings.TrimSpace(name)
		i := schema.AttrIndex(name)
		if i < 0 {
			return nil, fmt.Errorf("unknown attribute %q in -attrs", name)
		}
		attrs = append(attrs, i)
	}
	return cluster.NewGrid(schema, attrs, cfg.bins)
}

// monitorOptions assembles the stream options shared by the follow modes.
func monitorOptions(cfg *config) stream.Options {
	return stream.Options{
		WindowBatches:  cfg.window,
		Tumbling:       cfg.tumbling,
		PreviousWindow: cfg.prev,
		F:              cfg.f,
		G:              cfg.g,
		Threshold:      cfg.threshold,
		Qualify:        cfg.qualify,
		Replicates:     cfg.replicates,
		Seed:           cfg.seed,
		Parallelism:    cfg.par,
	}
}

// printReport renders one monitor report as a stable single line.
func printReport(w io.Writer, cfg *config, batchNo int, rep *stream.Report) {
	if rep == nil {
		fmt.Fprintf(w, "batch %d: window filling\n", batchNo)
		return
	}
	fmt.Fprintf(w, "batch %d: window[batches=%d n=%d] ref[n=%d] regions=%d delta(%s,%s) = %.6f",
		batchNo, rep.Batches, rep.N, rep.RefN, rep.Regions, cfg.fName, cfg.gName, rep.Deviation)
	if rep.Qual != nil {
		fmt.Fprintf(w, " sig=%.1f%%", rep.Qual.Significance)
	}
	if rep.Alert {
		fmt.Fprint(w, " ALERT")
	}
	fmt.Fprintln(w)
}

func runLitsFollow(cfg *config, refPath, streamPath string, w io.Writer) error {
	ref, err := readTxns(refPath)
	if err != nil {
		return err
	}
	sd, err := readTxns(streamPath)
	if err != nil {
		return err
	}
	if sd.NumItems != ref.NumItems {
		return fmt.Errorf("stream universe %d != reference universe %d", sd.NumItems, ref.NumItems)
	}
	mon, err := stream.New(core.LitsWithCounter(cfg.minsup, cfg.counter), ref, monitorOptions(cfg))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "following %d transactions in batches of %d (lits, window %d%s)\n",
		sd.Len(), cfg.batch, cfg.window, followModeSuffix(cfg))
	return replay(cfg, len(sd.Txns), w, func(lo, hi int) (*stream.Report, error) {
		return mon.Ingest(&txn.Dataset{NumItems: ref.NumItems, Txns: sd.Txns[lo:hi]})
	})
}

func runDTFollow(cfg *config, refPath, streamPath string, w io.Writer) error {
	schema := classgen.Schema()
	ref, err := readCSV(refPath, schema)
	if err != nil {
		return err
	}
	sd, err := readCSV(streamPath, schema)
	if err != nil {
		return err
	}
	tree, err := dtree.BuildP(ref, dtConfig(cfg), 0)
	if err != nil {
		return err
	}
	mon, err := stream.New(core.PinnedDT(tree), ref, monitorOptions(cfg))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "following %d tuples in batches of %d (dt over %d leaves, window %d%s)\n",
		sd.Len(), cfg.batch, tree.NumLeaves(), cfg.window, followModeSuffix(cfg))
	return replay(cfg, len(sd.Tuples), w, func(lo, hi int) (*stream.Report, error) {
		return mon.Ingest(dataset.FromTuples(schema, sd.Tuples[lo:hi]))
	})
}

func runClusterFollow(cfg *config, refPath, streamPath string, w io.Writer) error {
	schema := classgen.Schema()
	grid, err := gridFromFlags(cfg, schema)
	if err != nil {
		return err
	}
	ref, err := readCSV(refPath, schema)
	if err != nil {
		return err
	}
	sd, err := readCSV(streamPath, schema)
	if err != nil {
		return err
	}
	mon, err := stream.New(core.Cluster(grid, cfg.minDensity), ref, monitorOptions(cfg))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "following %d tuples in batches of %d (cluster over %s, window %d%s)\n",
		sd.Len(), cfg.batch, cfg.attrs, cfg.window, followModeSuffix(cfg))
	return replay(cfg, len(sd.Tuples), w, func(lo, hi int) (*stream.Report, error) {
		return mon.Ingest(dataset.FromTuples(schema, sd.Tuples[lo:hi]))
	})
}

func followModeSuffix(cfg *config) string {
	out := ""
	if cfg.tumbling {
		out += ", tumbling"
	}
	if cfg.prev {
		out += ", vs previous window"
	}
	return out
}

// replay feeds [0, n) to ingest in batches of cfg.batch, printing one line
// per batch and a trailing alert summary.
func replay(cfg *config, n int, w io.Writer, ingest func(lo, hi int) (*stream.Report, error)) error {
	if cfg.batch < 1 {
		return fmt.Errorf("batch size %d < 1", cfg.batch)
	}
	alerts := 0
	batchNo := 0
	for lo := 0; lo < n; lo += cfg.batch {
		hi := lo + cfg.batch
		if hi > n {
			hi = n
		}
		rep, err := ingest(lo, hi)
		if err != nil {
			return err
		}
		printReport(w, cfg, batchNo, rep)
		if rep != nil && rep.Alert {
			alerts++
		}
		batchNo++
	}
	fmt.Fprintf(w, "replayed %d batches, %d alerts\n", batchNo, alerts)
	return nil
}

func readTxns(path string) (*txn.Dataset, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	d, err := txn.Read(fh)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

func readCSV(path string, schema *dataset.Schema) (*dataset.Dataset, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	d, err := dataset.ReadCSV(fh, schema)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}
