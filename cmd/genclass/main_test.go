package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"focus/internal/classgen"
	"focus/internal/dataset"
)

// TestRunMatchesLibrary checks that genclass writes exactly the bytes of
// classgen.Generate's dataset under WriteCSV, to stdout and to an -o file,
// and that they read back as that dataset.
func TestRunMatchesLibrary(t *testing.T) {
	d, err := classgen.Generate(classgen.Config{NumTuples: 300, Function: classgen.F4, NoiseLevel: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := d.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}

	args := []string{"-tuples", "300", "-fn", "4", "-noise", "0.05", "-seed", "3"}
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Error("stdout differs from the library's WriteCSV bytes")
	}
	if !strings.HasPrefix(stderr.String(), "generated 300.F4: 300 tuples") {
		t.Errorf("summary = %q", stderr.String())
	}

	path := filepath.Join(t.TempDir(), "d.csv")
	if err := run(append(args, "-o", path), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("-o file differs from the library's WriteCSV bytes")
	}
	back, err := dataset.ReadCSV(bytes.NewReader(got), classgen.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Tuples) != len(d.Tuples) {
		t.Fatalf("read back %d tuples, want %d", len(back.Tuples), len(d.Tuples))
	}
	for i := range d.Tuples {
		if !slices.Equal(back.Tuples[i], d.Tuples[i]) {
			t.Fatalf("tuple %d read back as %v, want %v", i, back.Tuples[i], d.Tuples[i])
		}
	}
}

func TestRunRejectsBadFunction(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-fn", "11"}, &stdout, &stderr); err == nil {
		t.Fatal("function 11 accepted")
	}
	if stdout.Len() != 0 {
		t.Error("wrote output despite the error")
	}
}
