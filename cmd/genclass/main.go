// Command genclass generates synthetic classification data with the
// reimplemented generator of Agrawal, Imielinski & Swami (TKDE 1993) and
// writes it as CSV readable by cmd/focus.
//
// Usage:
//
//	genclass -name 0.5M.F2 -seed 3 -o people.csv
//	genclass -tuples 100000 -fn 1 -noise 0.05 -o people.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"focus/internal/classgen"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	default:
		fmt.Fprintln(os.Stderr, "genclass:", err)
		os.Exit(1)
	}
}

// run executes one genclass invocation: the dataset goes to the -o file or
// to stdout, the one-line summary to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("genclass", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name   = fs.String("name", "", "dataset name like 1M.F1 (overrides the numeric flags)")
		tuples = fs.Int("tuples", 100000, "number of tuples")
		fn     = fs.Int("fn", 1, "classification function 1..10")
		noise  = fs.Float64("noise", 0, "label noise probability in [0,1]")
		seed   = fs.Int64("seed", 1, "generator seed")
		out    = fs.String("o", "", "output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var cfg classgen.Config
	if *name != "" {
		parsed, err := classgen.ParseName(*name)
		if err != nil {
			return err
		}
		cfg = parsed
	} else {
		cfg = classgen.Config{NumTuples: *tuples, Function: classgen.Function(*fn)}
	}
	cfg.NoiseLevel = *noise
	cfg.Seed = *seed

	d, err := classgen.Generate(cfg)
	if err != nil {
		return err
	}
	if err := writeOutput(*out, stdout, d.WriteCSV); err != nil {
		return err
	}
	counts := d.ClassCounts()
	fmt.Fprintf(stderr, "generated %s: %d tuples, class balance A=%d B=%d\n",
		cfg.Name(), d.Len(), counts[0], counts[1])
	return nil
}

// writeOutput runs write on the file at path, or on stdout when path is
// empty, and reports the first error of the write and the close.
func writeOutput(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
