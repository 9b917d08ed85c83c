package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"focus/internal/quest"
	"focus/internal/txn"
)

// TestRunMatchesLibrary checks that genquest writes exactly the bytes of
// quest.Generate's dataset under txn.Write, to stdout and to an -o file,
// and that they read back as that dataset.
func TestRunMatchesLibrary(t *testing.T) {
	cfg := quest.DefaultConfig(300)
	cfg.NumItems, cfg.NumPatterns, cfg.AvgTxnLen, cfg.AvgPatternLen, cfg.Seed = 200, 50, 10, 5, 9
	d, err := quest.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := d.Write(&want); err != nil {
		t.Fatal(err)
	}

	args := []string{"-txns", "300", "-items", "200", "-pats", "50", "-tl", "10", "-patlen", "5", "-seed", "9"}
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Error("stdout differs from the library's Write bytes")
	}
	if !strings.HasPrefix(stderr.String(), "generated 300.10L.200.50pats.5patlen: 300 transactions") {
		t.Errorf("summary = %q", stderr.String())
	}

	path := filepath.Join(t.TempDir(), "d.txns")
	if err := run(append(args, "-o", path), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("-o file differs from the library's Write bytes")
	}
	back, err := txn.Read(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumItems != d.NumItems || len(back.Txns) != len(d.Txns) {
		t.Fatalf("read back %d items/%d txns, want %d/%d", back.NumItems, len(back.Txns), d.NumItems, len(d.Txns))
	}
	for i := range d.Txns {
		if !slices.Equal(back.Txns[i], d.Txns[i]) {
			t.Fatalf("transaction %d read back as %v, want %v", i, back.Txns[i], d.Txns[i])
		}
	}
}

func TestRunRejectsBadName(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-name", "nonsense"}, &stdout, &stderr); err == nil {
		t.Fatal("bad -name accepted")
	}
	if stdout.Len() != 0 {
		t.Error("wrote output despite the error")
	}
}
