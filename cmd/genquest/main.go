// Command genquest generates synthetic market-basket data with the
// reimplemented IBM Quest generator (Agrawal & Srikant, VLDB 1994) and
// writes it in the line-oriented format read by cmd/focus.
//
// Usage:
//
//	genquest -name 0.5M.20L.1K.4000pats.4patlen -seed 7 -o store.txns
//	genquest -txns 100000 -items 1000 -pats 4000 -patlen 4 -tl 20 -o d.txns
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"focus/internal/quest"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	default:
		fmt.Fprintln(os.Stderr, "genquest:", err)
		os.Exit(1)
	}
}

// run executes one genquest invocation: the dataset goes to the -o file or
// to stdout, the one-line summary to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("genquest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name   = fs.String("name", "", "dataset name in the paper's convention (overrides the numeric flags)")
		txns   = fs.Int("txns", 100000, "number of transactions (N)")
		tl     = fs.Float64("tl", 20, "average transaction length")
		items  = fs.Int("items", 1000, "item universe size |I|")
		pats   = fs.Int("pats", 4000, "number of potential patterns |L|")
		patlen = fs.Float64("patlen", 4, "average pattern length")
		seed   = fs.Int64("seed", 1, "generator seed")
		out    = fs.String("o", "", "output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var cfg quest.Config
	if *name != "" {
		parsed, err := quest.ParseName(*name)
		if err != nil {
			return err
		}
		cfg = parsed
	} else {
		cfg = quest.DefaultConfig(*txns)
		cfg.AvgTxnLen = *tl
		cfg.NumItems = *items
		cfg.NumPatterns = *pats
		cfg.AvgPatternLen = *patlen
	}
	cfg.Seed = *seed

	d, err := quest.Generate(cfg)
	if err != nil {
		return err
	}
	if err := writeOutput(*out, stdout, d.Write); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "generated %s: %d transactions, avg length %.2f\n", cfg.Name(), d.Len(), d.AvgLen())
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
