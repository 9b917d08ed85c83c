package serve_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"focus/internal/parallel"
	"focus/internal/serve"
	"focus/internal/wal"
)

// restoreFixture builds a data dir holding lits, dt and cluster sessions
// with logged feeds (some compacted, some not), plus three sessions that
// cannot restore: a garbage snapshot, a corrupt WAL record and a snapshot
// naming another session.
func restoreFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	r, _, err := serve.OpenRegistry(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	kinds := durableKinds()
	for copyIdx := 0; copyIdx < 3; copyIdx++ {
		for _, k := range kinds {
			cfg := parseConfig(t, k.cfg)
			cfg.Name = fmt.Sprintf("%s-%d", cfg.Name, copyIdx)
			s, err := r.Create(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// A different feed count per copy leaves some logs compacted
			// and some holding records.
			for i := 0; i < len(k.batches)-copyIdx; i++ {
				feedKind(t, s, k, i)
			}
		}
	}
	r.Close()

	bad := filepath.Join(dir, "sessions", "bad-snapshot")
	if err := os.MkdirAll(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, "snapshot.bin"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	logs, err := filepath.Glob(filepath.Join(dir, "sessions", "dt-1", "wal.*.log"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("dt-1 logs %v: %v", logs, err)
	}
	w, _, err := wal.Open(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	// A well-checksummed record no feed can have written.
	if err := w.Append([]byte{0x7f, 1, 2}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := os.CopyFS(filepath.Join(dir, "sessions", "renamed"), os.DirFS(filepath.Join(dir, "sessions", "cq-0"))); err != nil {
		t.Fatal(err)
	}
	return dir
}

// restoreWith opens a copy of dir with the given worker count and renders
// every restored session's fingerprint and the warnings.
func restoreWith(t *testing.T, dir string, workers int) (fingerprints, warnings []string) {
	t.Helper()
	parallel.SetDefault(workers)
	defer parallel.SetDefault(0)
	cp := filepath.Join(t.TempDir(), "data")
	if err := os.CopyFS(cp, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	r, warns, err := serve.OpenRegistry(cp, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, name := range r.Names() {
		s, _ := r.Get(name)
		fingerprints = append(fingerprints, name+" "+sessionFingerprint(t, s))
	}
	for _, w := range warns {
		warnings = append(warnings, w.Error())
	}
	return fingerprints, warnings
}

// TestParallelRestoreDeterministic restores one data dir serially and on a
// pool of four workers: the same sessions must restore bit-identically,
// and the unrestorable ones must be reported by the same warnings in name
// order.
func TestParallelRestoreDeterministic(t *testing.T) {
	dir := restoreFixture(t)
	serialFP, serialWarn := restoreWith(t, dir, 1)
	poolFP, poolWarn := restoreWith(t, dir, 4)
	if want := 3*len(durableKinds()) - 1; len(serialFP) != want {
		t.Fatalf("restored %d sessions, want %d", len(serialFP), want)
	}
	for _, want := range []string{`"bad-snapshot"`, `"dt-1"`, `"renamed"`} {
		found := false
		for _, w := range serialWarn {
			found = found || strings.Contains(w, want)
		}
		if !found {
			t.Errorf("no warning names %s: %v", want, serialWarn)
		}
	}
	if len(serialWarn) != 3 || serialWarn[0] > serialWarn[1] || serialWarn[1] > serialWarn[2] {
		t.Fatalf("warnings %q, want three in name order", serialWarn)
	}
	if strings.Join(poolFP, "\n") != strings.Join(serialFP, "\n") {
		t.Fatalf("parallel restore diverges\n got: %v\nwant: %v", poolFP, serialFP)
	}
	if strings.Join(poolWarn, "\n") != strings.Join(serialWarn, "\n") {
		t.Fatalf("parallel restore warnings %q, want %q", poolWarn, serialWarn)
	}
}

// openRegistryFixture is a member's data dir as feed-durable leaves it at
// a restart: cluster and pinned-dt sessions of 64-row batches, each with
// the given number of logged feeds, compacted every compactEvery records
// (0: the default, so 100 feeds leave no compaction yet).
func openRegistryFixture(b *testing.B, sessions, feeds, compactEvery int) string {
	b.Helper()
	dir := b.TempDir()
	r, _, err := serve.OpenRegistry(dir, compactEvery)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rows := func(n int, dt bool) json.RawMessage {
		var sb strings.Builder
		sb.WriteByte('[')
		for i := 0; i < n; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `{"x": %v, "y": %v`, 100*rng.Float64(), 100*rng.Float64())
			if dt {
				fmt.Fprintf(&sb, `, "class": %q`, []string{"A", "B"}[rng.Intn(2)])
			}
			sb.WriteByte('}')
		}
		sb.WriteByte(']')
		return json.RawMessage(sb.String())
	}
	attrs := `{"name": "x", "kind": "numeric", "min": 0, "max": 100}, {"name": "y", "kind": "numeric", "min": 0, "max": 100}`
	for i := 0; i < sessions; i++ {
		var cfg string
		dt := i%2 == 1
		if dt {
			cfg = fmt.Sprintf(`{"name": "dt-%02d", "model": "dt", "window": 4, "threshold": 0.25,
				"schema": {"attrs": [%s, {"name": "class", "kind": "categorical", "values": ["A", "B"]}], "class": "class"},
				"reference": %s}`, i, attrs, rows(2000, true))
		} else {
			cfg = fmt.Sprintf(`{"name": "cl-%02d", "model": "cluster", "window": 4, "threshold": 0.25,
				"schema": {"attrs": [%s]}, "grid_attrs": ["x", "y"], "grid_bins": 8, "min_density": 0.02,
				"reference": %s}`, i, attrs, rows(512, false))
		}
		var sc serve.SessionConfig
		if err := json.Unmarshal([]byte(cfg), &sc); err != nil {
			b.Fatal(err)
		}
		s, err := r.Create(sc)
		if err != nil {
			b.Fatal(err)
		}
		for f := 0; f < feeds; f++ {
			if _, err := s.Feed(nil, rows(64, dt)); err != nil {
				b.Fatal(err)
			}
		}
	}
	r.Close()
	return dir
}

// BenchmarkOpenRegistry restores 16 sessions (8 cluster, 8 pinned-dt) of
// 100 logged 64-row feeds each: snapshot decode, rebinding (decoding the
// reference rows and pinned trees) and WAL replay, on the default restore
// pool. A restore below the compaction threshold leaves the dir as it
// found it, so every iteration opens the same state.
func BenchmarkOpenRegistry(b *testing.B) {
	dir := openRegistryFixture(b, 16, 100, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, warns, err := serve.OpenRegistry(dir, 0)
		if err != nil || len(warns) > 0 {
			b.Fatalf("open: %v %v", err, warns)
		}
		b.StopTimer()
		r.Close()
		b.StartTimer()
	}
}

// BenchmarkOpenRegistryCompacted restores the sessions of
// BenchmarkOpenRegistry after their logs were compacted: each snapshot
// carries four window batches of 64 rows and 100 reports, and no WAL
// record is left to replay.
func BenchmarkOpenRegistryCompacted(b *testing.B) {
	dir := openRegistryFixture(b, 16, 100, 50)
	names, err := filepath.Glob(filepath.Join(dir, "sessions", "*", "wal.000003.log"))
	if err != nil || len(names) != 16 {
		b.Fatalf("want 16 twice-compacted sessions, got %d: %v", len(names), err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, warns, err := serve.OpenRegistry(dir, 0)
		if err != nil || len(warns) > 0 {
			b.Fatalf("open: %v %v", err, warns)
		}
		b.StopTimer()
		r.Close()
		b.StartTimer()
	}
}
