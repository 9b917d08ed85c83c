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

	"focus/internal/classgen"
	"focus/internal/cluster"
	"focus/internal/core"
	"focus/internal/dataset"
	"focus/internal/dtree"
	"focus/internal/parallel"
	"focus/internal/source"
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
	model      string
	minsup     float64
	fName      string
	gName      string
	qualify    bool
	replicates int
	seed       int64
	maxDepth   int
	minLeaf    int
	showBound  bool
	par        int

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

	switch cfg.model {
	case "lits":
		return runLits(&cfg, fs.Arg(0), fs.Arg(1), stdout)
	case "dt":
		return runDT(&cfg, fs.Arg(0), fs.Arg(1), stdout)
	case "cluster":
		return runCluster(&cfg, fs.Arg(0), fs.Arg(1), stdout)
	default:
		return fmt.Errorf("unknown model class %q (want lits, dt or cluster)", cfg.model)
	}
}

// runLits loads two transaction files and runs the lits-model batch or
// follow mode over them.
func runLits(cfg *config, path1, path2 string, w io.Writer) error {
	d1, d2, err := readPair(path1, path2, txn.Read)
	if err != nil {
		return err
	}
	mc := core.Lits(cfg.minsup)
	if cfg.follow {
		if d2.NumItems != d1.NumItems {
			return fmt.Errorf("stream universe %d != reference universe %d", d2.NumItems, d1.NumItems)
		}
		return runFollow(cfg, mc, d1, d2, w, "transactions", "lits")
	}
	return runPair(cfg, mc, d1, d2, w, func(m1, m2 *core.LitsModel) string {
		return fmt.Sprintf("lits-models: |L1|=%d |L2|=%d minsup=%g", m1.Len(), m2.Len(), cfg.minsup)
	}, func(m1, m2 *core.LitsModel) float64 {
		return core.LitsUpperBound(m1, m2, cfg.g)
	})
}

// runDT loads two CSV files and runs the dt-model batch mode over them, or
// follow mode against a tree pinned on the first file.
func runDT(cfg *config, path1, path2 string, w io.Writer) error {
	d1, d2, err := readCSVPair(classgen.Schema(), path1, path2)
	if err != nil {
		return err
	}
	tcfg := dtree.Config{MaxDepth: cfg.maxDepth, MinLeaf: cfg.minLeaf}
	if cfg.follow {
		tree, err := dtree.BuildP(d1, tcfg, 0)
		if err != nil {
			return err
		}
		return runFollow(cfg, core.PinnedDT(tree), d1, d2, w, "tuples", fmt.Sprintf("dt over %d leaves", tree.NumLeaves()))
	}
	return runPair(cfg, core.DT(tcfg), d1, d2, w, func(m1, m2 *core.DTModel) string {
		return fmt.Sprintf("dt-models: %d and %d leaves", m1.Tree.NumLeaves(), m2.Tree.NumLeaves())
	}, nil)
}

// runCluster loads two CSV files and runs the cluster-model batch or
// follow mode over them on the -attrs grid.
func runCluster(cfg *config, path1, path2 string, w io.Writer) error {
	schema := classgen.Schema()
	grid, err := gridFromFlags(cfg, schema)
	if err != nil {
		return err
	}
	d1, d2, err := readCSVPair(schema, path1, path2)
	if err != nil {
		return err
	}
	mc := core.Cluster(grid, cfg.minDensity)
	if cfg.follow {
		return runFollow(cfg, mc, d1, d2, w, "tuples", "cluster over "+cfg.attrs)
	}
	return runPair(cfg, mc, d1, d2, w, func(m1, m2 *core.ClusterModel) string {
		return fmt.Sprintf("cluster-models: %d and %d clusters over %s (%d bins, mindensity %g)",
			m1.NumClusters(), m2.NumClusters(), cfg.attrs, cfg.bins, cfg.minDensity)
	}, nil)
}

// runPair is the batch mode of every class: it prints the class's header
// line for the two induced models, their deviation, the delta* upper bound
// under -bound when the class has one (bound non-nil), and under -qualify
// the deviation's bootstrap significance.
func runPair[D, M any](cfg *config, mc core.ModelClass[D, M], d1, d2 D, w io.Writer,
	header func(m1, m2 M) string, bound func(m1, m2 M) float64) error {
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
	fmt.Fprintln(w, header(m1, m2))
	fmt.Fprintf(w, "deviation delta(%s,%s) = %.6f\n", cfg.fName, cfg.gName, dev)
	if cfg.showBound && bound != nil {
		fmt.Fprintf(w, "upper bound delta*(%s) = %.6f (no dataset scan)\n", cfg.gName, bound(m1, m2))
	}
	if cfg.qualify {
		q, err := core.Qualify(mc, d1, d2, cfg.f, cfg.g, core.WithReplicates(cfg.replicates), core.WithSeed(cfg.seed))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "significance sig(delta) = %.1f%% (bootstrap, %d replicates)\n", q.Significance, len(q.Null))
	}
	return nil
}

// runFollow is the follow mode of every class: it replays sd in batches of
// -batch rows through a monitor of mc pinned on ref, printing the
// per-class header line (rows names sd's rows, desc the monitored model),
// one report line per batch and a trailing alert summary.
func runFollow[D source.Sliceable[D], M any](cfg *config, mc core.ModelClass[D, M], ref, sd D, w io.Writer, rows, desc string) error {
	mon, err := stream.New(mc, ref, stream.Options{
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
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "following %d %s in batches of %d (%s, window %d%s)\n",
		sd.Len(), rows, cfg.batch, desc, cfg.window, followModeSuffix(cfg))
	if cfg.batch < 1 {
		return fmt.Errorf("batch size %d < 1", cfg.batch)
	}
	n := sd.Len()
	alerts := 0
	batchNo := 0
	for lo := 0; lo < n; lo += cfg.batch {
		rep, err := mon.Ingest(sd.Slice(lo, min(lo+cfg.batch, n)))
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

// readPair decodes the two dataset files of an invocation.
func readPair[D any](path1, path2 string, decode func(io.Reader) (D, error)) (d1, d2 D, err error) {
	if d1, err = readFile(path1, decode); err != nil {
		return d1, d2, err
	}
	d2, err = readFile(path2, decode)
	return d1, d2, err
}

// readCSVPair decodes two CSV files on schema.
func readCSVPair(schema *dataset.Schema, path1, path2 string) (d1, d2 *dataset.Dataset, err error) {
	return readPair(path1, path2, func(r io.Reader) (*dataset.Dataset, error) { return dataset.ReadCSV(r, schema) })
}

func readFile[D any](path string, decode func(io.Reader) (D, error)) (D, error) {
	fh, err := os.Open(path)
	if err != nil {
		var zero D
		return zero, err
	}
	defer fh.Close()
	d, err := decode(fh)
	if err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}
