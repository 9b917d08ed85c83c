package main

// Golden-file tests: every CLI mode runs on deterministic generated inputs
// with -parallelism 1 and fixed seeds, and its stdout must match the
// checked-in files under testdata/golden. Regenerate after an intentional
// output change with:
//
//	go test ./cmd/focus -run TestGolden -update

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"focus/internal/classgen"
	"focus/internal/dataset"
	"focus/internal/quest"
	"focus/internal/txn"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// inputs generates the deterministic datasets the golden runs read,
// returning the four file paths (txn reference/stream, CSV
// reference/stream). The streams carry a drift tail so follow-mode goldens
// exercise ALERT reporting.
func inputs(t *testing.T) (refTxns, streamTxns, refCSV, streamCSV string) {
	t.Helper()
	dir := t.TempDir()

	qcfg := quest.DefaultConfig(600)
	qcfg.NumItems = 120
	qcfg.NumPatterns = 80
	qcfg.AvgTxnLen = 8
	qcfg.Seed = 1
	ref, err := quest.Generate(qcfg)
	if err != nil {
		t.Fatal(err)
	}
	same := qcfg
	same.Seed = 2
	sameD, err := quest.Generate(same)
	if err != nil {
		t.Fatal(err)
	}
	changed := qcfg
	changed.NumTxns = 400
	changed.AvgPatternLen = 8
	changed.Seed = 3
	changedD, err := quest.Generate(changed)
	if err != nil {
		t.Fatal(err)
	}
	streamD, err := sameD.Concat(changedD)
	if err != nil {
		t.Fatal(err)
	}
	refTxns = writeTxns(t, dir, "ref.txns", ref)
	streamTxns = writeTxns(t, dir, "stream.txns", streamD)

	refD, err := classgen.Generate(classgen.Config{NumTuples: 1200, Function: classgen.F1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sameC, err := classgen.Generate(classgen.Config{NumTuples: 900, Function: classgen.F1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	driftC, err := classgen.Generate(classgen.Config{NumTuples: 600, Function: classgen.F3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	streamC, err := sameC.Concat(driftC)
	if err != nil {
		t.Fatal(err)
	}
	refCSV = writeCSV(t, dir, "ref.csv", refD)
	streamCSV = writeCSV(t, dir, "stream.csv", streamC)
	return refTxns, streamTxns, refCSV, streamCSV
}

func writeTxns(t *testing.T, dir, name string, d *txn.Dataset) string {
	t.Helper()
	path := filepath.Join(dir, name)
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	if err := d.Write(fh); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeCSV(t *testing.T, dir, name string, d *dataset.Dataset) string {
	t.Helper()
	path := filepath.Join(dir, name)
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	if err := d.WriteCSV(fh); err != nil {
		t.Fatal(err)
	}
	return path
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (regenerate with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestGolden(t *testing.T) {
	refTxns, streamTxns, refCSV, streamCSV := inputs(t)
	cases := []struct {
		name string
		args []string
	}{
		{"lits", []string{
			"-model", "lits", "-minsup", "0.02", "-bound",
			"-qualify", "-replicates", "19", "-seed", "1", "-parallelism", "1",
			refTxns, streamTxns}},
		{"lits-max", []string{
			"-model", "lits", "-minsup", "0.02", "-f", "fs", "-g", "max", "-parallelism", "1",
			refTxns, streamTxns}},
		{"dt", []string{
			"-model", "dt", "-maxdepth", "5", "-minleaf", "40",
			"-qualify", "-replicates", "19", "-seed", "2", "-parallelism", "1",
			refCSV, streamCSV}},
		{"cluster", []string{
			"-model", "cluster", "-attrs", "salary,age", "-bins", "6", "-mindensity", "0.02", "-parallelism", "1",
			refCSV, streamCSV}},
		{"cluster-qualify", []string{
			"-model", "cluster", "-attrs", "salary,age", "-bins", "6", "-mindensity", "0.02",
			"-qualify", "-replicates", "19", "-seed", "7", "-parallelism", "1",
			refCSV, streamCSV}},
		{"lits-follow", []string{
			"-model", "lits", "-follow", "-minsup", "0.02", "-batch", "200", "-window", "2", "-parallelism", "1",
			refTxns, streamTxns}},
		{"dt-follow-alert", []string{
			"-model", "dt", "-follow", "-batch", "300", "-window", "2", "-threshold", "0.15",
			"-maxdepth", "5", "-minleaf", "40", "-parallelism", "1",
			refCSV, streamCSV}},
		{"dt-follow-qualify", []string{
			"-model", "dt", "-follow", "-batch", "500", "-window", "1",
			"-qualify", "-replicates", "19", "-seed", "3",
			"-maxdepth", "5", "-minleaf", "40", "-parallelism", "1",
			refCSV, streamCSV}},
		{"cluster-follow-tumbling", []string{
			"-model", "cluster", "-follow", "-tumbling", "-batch", "300", "-window", "2",
			"-attrs", "salary,age", "-bins", "6", "-mindensity", "0.02", "-parallelism", "1",
			refCSV, streamCSV}},
		{"lits-follow-prev", []string{
			"-model", "lits", "-follow", "-prev", "-minsup", "0.02", "-batch", "250", "-window", "1", "-parallelism", "1",
			refTxns, streamTxns}},
		// The lits golden args forced onto the bitmap backend: the counting
		// backend must never change a byte of output (see
		// TestCounterGoldenIdentical, which pins this golden to lits.golden).
		{"counter-bitmap", []string{
			"-model", "lits", "-minsup", "0.02", "-bound", "-counter", "bitmap",
			"-qualify", "-replicates", "19", "-seed", "1", "-parallelism", "1",
			refTxns, streamTxns}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(tc.args, &buf); err != nil {
				t.Fatalf("run(%v): %v", tc.args, err)
			}
			checkGolden(t, tc.name, buf.Bytes())
		})
	}
}

// Parallelism must not change any output: every golden must reproduce
// bit-identically at -parallelism 4.
func TestGoldenParallelismInvariant(t *testing.T) {
	refTxns, streamTxns, refCSV, streamCSV := inputs(t)
	cases := []struct {
		name string
		args []string
	}{
		{"lits-follow", []string{
			"-model", "lits", "-follow", "-minsup", "0.02", "-batch", "200", "-window", "2", "-parallelism", "4",
			refTxns, streamTxns}},
		{"dt", []string{
			"-model", "dt", "-maxdepth", "5", "-minleaf", "40",
			"-qualify", "-replicates", "19", "-seed", "2", "-parallelism", "4",
			refCSV, streamCSV}},
		{"dt-follow-alert", []string{
			"-model", "dt", "-follow", "-batch", "300", "-window", "2", "-threshold", "0.15",
			"-maxdepth", "5", "-minleaf", "40", "-parallelism", "4",
			refCSV, streamCSV}},
		{"cluster-follow-tumbling", []string{
			"-model", "cluster", "-follow", "-tumbling", "-batch", "300", "-window", "2",
			"-attrs", "salary,age", "-bins", "6", "-mindensity", "0.02", "-parallelism", "4",
			refCSV, streamCSV}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(tc.args, &buf); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.name, buf.Bytes())
		})
	}
}

// TestCounterGoldenIdentical proves the counting-backend equivalence at
// the CLI level: the counter-bitmap golden must be byte-identical to the
// lits golden (same args, different backend), and every -counter value must
// reproduce it — in batch and follow mode.
func TestCounterGoldenIdentical(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "lits.golden"))
	if err != nil {
		t.Fatal(err)
	}
	bitmap, err := os.ReadFile(filepath.Join("testdata", "golden", "counter-bitmap.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, bitmap) {
		t.Errorf("counter-bitmap.golden differs from lits.golden:\n--- bitmap ---\n%s--- lits ---\n%s", bitmap, want)
	}
	refTxns, streamTxns, _, _ := inputs(t)
	for _, counter := range []string{"auto", "trie", "bitmap"} {
		var buf bytes.Buffer
		args := []string{
			"-model", "lits", "-minsup", "0.02", "-bound", "-counter", counter,
			"-qualify", "-replicates", "19", "-seed", "1", "-parallelism", "1",
			refTxns, streamTxns}
		if err := run(args, &buf); err != nil {
			t.Fatalf("-counter %s: %v", counter, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("-counter %s output differs from lits.golden", counter)
		}
		buf.Reset()
		follow := []string{
			"-model", "lits", "-follow", "-minsup", "0.02", "-counter", counter,
			"-batch", "200", "-window", "2", "-parallelism", "1",
			refTxns, streamTxns}
		if err := run(follow, &buf); err != nil {
			t.Fatalf("-counter %s follow: %v", counter, err)
		}
		checkGolden(t, "lits-follow", buf.Bytes())
	}
}

// TestCounterFlagErrors pins the usage error for invalid -counter values.
func TestCounterFlagErrors(t *testing.T) {
	refTxns, _, _, _ := inputs(t)
	for _, bad := range []string{"zz", "btree", "Bitmap", "vertical", "0"} {
		t.Run(bad, func(t *testing.T) {
			var buf bytes.Buffer
			err := run([]string{"-model", "lits", "-counter", bad, refTxns, refTxns}, &buf)
			if err == nil {
				t.Fatalf("-counter %q did not error", bad)
			}
			if !strings.Contains(err.Error(), "unknown counter") {
				t.Errorf("error %q does not mention the unknown counter", err)
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	refTxns, _, refCSV, streamCSV := inputs(t)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown-model", []string{"-model", "nope", refTxns, refTxns}, "unknown model class"},
		{"one-arg", []string{refTxns}, "exactly two"},
		{"bad-f", []string{"-f", "zz", refTxns, refTxns}, "unknown difference function"},
		{"bad-g", []string{"-g", "zz", refTxns, refTxns}, "unknown aggregate function"},
		{"bad-attr", []string{"-model", "cluster", "-attrs", "nope", refCSV, streamCSV}, "unknown attribute"},
		{"missing-file", []string{"-model", "lits", refTxns, filepath.Join(t.TempDir(), "absent.txns")}, "absent"},
		{"bad-batch", []string{"-model", "lits", "-follow", "-batch", "0", refTxns, refTxns}, "batch size"},
		{"bad-counter", []string{"-model", "lits", "-counter", "zz", refTxns, refTxns}, "unknown counter"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := run(tc.args, &buf)
			if err == nil {
				t.Fatalf("run(%v) did not error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// Cluster qualification — impossible before the unified pipeline — must be
// deterministic and parallelism-invariant like every other mode.
func TestClusterQualifyParallelismInvariant(t *testing.T) {
	_, _, refCSV, streamCSV := inputs(t)
	var buf bytes.Buffer
	args := []string{
		"-model", "cluster", "-attrs", "salary,age", "-bins", "6", "-mindensity", "0.02",
		"-qualify", "-replicates", "19", "-seed", "7", "-parallelism", "4",
		refCSV, streamCSV}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cluster-qualify", buf.Bytes())
}
