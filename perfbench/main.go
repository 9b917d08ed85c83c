// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the real layers — in-process focusd members behind a
// fleet.Router on loopback, or the cmd/focus -qualify job — checks every
// output against an in-process reference, and prints each metric by name
// and unit; its last line is one JSON object with the verdict and the
// metrics.
//
//	perfbench --workload feed-durable --seed 1 --seconds 20 --trace 0
//
// It reads the workloads and metrics from BENCHMARK.json in the working
// directory and each workload's fixed parameters from its embedded
// definition.json. --trace 0 prints the end-to-end metrics; --trace 1
// is a separate run that records spans around the benchmark's calls into
// each layer, writes them to a span file, and prints the per-layer
// metrics derived from them. run.sh builds and runs it from a checkout.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

//go:embed definition.json
var recordJSON []byte

// metricDef is a metric as BENCHMARK.json lists it.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is what the program reads of BENCHMARK.json: the
// workload names and every metric's name and unit.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// record is definition.json, the benchmark's record beside
// BENCHMARK.json: each workload's fixed parameters and the assumptions
// behind them, what each end-to-end metric means on each workload, what
// each per-layer metric measures and which end-to-end metrics on which
// workloads it should move, and the costs this benchmark cannot separate.
type record struct {
	Workloads map[string]struct {
		Params      map[string]float64 `json:"params"`
		Assumptions []string           `json:"assumptions"`
	} `json:"workloads"`
	EndToEnd map[string]map[string]string `json:"end_to_end"`
	PerLayer map[string]struct {
		Meaning string              `json:"meaning"`
		Moves   map[string][]string `json:"moves"`
	} `json:"per_layer"`
	Inseparable []string `json:"inseparable"`
}

// definition is the benchmark as the program runs it.
type definition struct {
	Workloads []workloadDef
	EndToEnd  []metricDef
	PerLayer  []metricDef
}

type workloadDef struct {
	Name   string
	Params map[string]float64
}

// loadDefinition reads BENCHMARK.json at benchPath and joins it with the
// embedded record, which must describe every workload and metric
// BENCHMARK.json lists, and nothing else.
func loadDefinition(benchPath string) (*definition, error) {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", benchPath, err)
	}
	var r record
	dec := json.NewDecoder(bytes.NewReader(recordJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("definition.json: %w", err)
	}
	d := &definition{EndToEnd: b.EndToEnd, PerLayer: b.PerLayer}
	workloads := make(map[string]bool)
	for _, w := range b.Workloads {
		rw, ok := r.Workloads[w.Name]
		if !ok || len(rw.Params) == 0 {
			return nil, fmt.Errorf("definition.json: no parameters for workload %s", w.Name)
		}
		workloads[w.Name] = true
		d.Workloads = append(d.Workloads, workloadDef{w.Name, rw.Params})
	}
	endToEnd := make(map[string]bool)
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = true
		for w := range workloads {
			if r.EndToEnd[m.Name][w] == "" {
				return nil, fmt.Errorf("definition.json: no meaning of %s on %s", m.Name, w)
			}
		}
		for w := range r.EndToEnd[m.Name] {
			if !workloads[w] {
				return nil, fmt.Errorf("definition.json: %s has a meaning on unknown workload %s", m.Name, w)
			}
		}
	}
	for _, m := range b.PerLayer {
		pl, ok := r.PerLayer[m.Name]
		if !ok || pl.Meaning == "" {
			return nil, fmt.Errorf("definition.json: no meaning of %s", m.Name)
		}
		for target, ws := range pl.Moves {
			if !endToEnd[target] {
				return nil, fmt.Errorf("definition.json: %s moves unknown metric %s", m.Name, target)
			}
			for _, w := range ws {
				if !workloads[w] {
					return nil, fmt.Errorf("definition.json: %s moves %s on unknown workload %s", m.Name, target, w)
				}
			}
		}
	}
	if len(r.Workloads) != len(b.Workloads) || len(r.EndToEnd) != len(b.EndToEnd) || len(r.PerLayer) != len(b.PerLayer) {
		return nil, fmt.Errorf("definition.json describes workloads or metrics that %s does not list", benchPath)
	}
	return d, nil
}

// env is one run's settings.
type env struct {
	def     *workloadDef
	seed    int64
	seconds float64
	traced  bool
	conns   int     // the load generator's connection and worker limit
	work    string  // this run's scratch directory inside the checkout
	tr      *Tracer // records only in a traced run
	off     *Tracer // never records
}

// param returns a fixed workload parameter of definition.json.
func (e *env) param(name string) float64 {
	v, ok := e.def.Params[name]
	if !ok {
		panic(fmt.Sprintf("workload %s has no parameter %q in definition.json", e.def.Name, name))
	}
	return v
}

// setupGroups is how many groups a run's set-up rounds are split into,
// spread over the run, so that a slow spell of the host during one part
// of it leaves the median set-up time to the others.
const setupGroups = 3

// value is one measured metric and the number of samples behind it.
type value struct {
	v float64
	n int
}

// result is what a workload run measured and found.
type result struct {
	attempted, failed int
	mismatches        []string
	metrics           map[string]value
	notes             []string // figures printed for reading, not gated
}

func newResult() *result { return &result{metrics: make(map[string]value)} }

func (r *result) set(name string, v float64, n int) { r.metrics[name] = value{v, n} }

// note records an informational line of the run's output.
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// mismatch records a wrong output; it counts as a failed operation.
func (r *result) mismatch(format string, args ...any) {
	r.failed++
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

var runners = map[string]func(e *env) (*result, error){
	"feed-durable":       runFeedDurable,
	"lits-monitor-reads": runLitsMonitorReads,
	"qualify-batch":      runQualify,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: feed-durable, lits-monitor-reads or qualify-batch")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	work := fs.String("work", ".bench_build", "directory for data dirs and span files")
	bench := fs.String("benchmark", "BENCHMARK.json", "the benchmark's BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, err := loadDefinition(*bench)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var wd *workloadDef
	for i := range def.Workloads {
		if def.Workloads[i].Name == *workload {
			wd = &def.Workloads[i]
		}
	}
	runner := runners[*workload]
	if wd == nil || runner == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		return 2
	}
	runDir := filepath.Join(*work, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)
	e := &env{
		def: wd, seed: *seed, seconds: float64(*seconds), traced: *trace == 1,
		conns: runtime.NumCPU(), work: runDir,
		tr: newTracer(*trace == 1), off: newTracer(false),
	}
	res, err := runner(e)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	metrics := def.EndToEnd
	if e.traced {
		spanFile := filepath.Join(*work, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
		if err := e.tr.WriteFile(spanFile); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(e.tr.Spans()), spanFile)
		layerMetrics(e, res)
		metrics = def.PerLayer
	}
	return report(stdout, stderr, *workload, metrics, res)
}

// report prints every metric with its unit and sample count, then the
// result line, and returns the exit code: 1 on any failed or wrong
// operation.
func report(stdout, stderr io.Writer, workload string, metrics []metricDef, res *result) int {
	for _, m := range res.mismatches {
		fmt.Fprintln(stderr, "mismatch:", m)
	}
	ratio := float64(res.failed) / float64(max(res.attempted, 1))
	fmt.Fprintf(stdout, "%-28s %14d ops   failed %d (fail_ratio %g)\n", "attempted", res.attempted, res.failed, ratio)
	for _, n := range res.notes {
		fmt.Fprintln(stdout, n)
	}
	out := make(map[string]any, len(metrics))
	for _, m := range metrics {
		v, ok := res.metrics[m.Name]
		if !ok {
			v = value{0, 0}
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is %v on %s\n", m.Name, v.v, workload)
			return 1
		}
		fmt.Fprintf(stdout, "%-28s %14.4f %-6s n=%d\n", m.Name, v.v, m.Unit, v.n)
		out[m.Name] = map[string]any{"value": v.v, "unit": m.Unit}
	}
	correct := res.failed == 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

// setPeakRSS records the process's peak resident set (VmHWM) so far. The
// workloads read it when the measured phases end, before the correctness
// check, whose reference monitors are the benchmark's own memory.
func setPeakRSS(res *result) error {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			res.set("peak_rss_mb", kb/1024, 1)
			return err
		}
	}
	return fmt.Errorf("no VmHWM in /proc/self/status")
}
