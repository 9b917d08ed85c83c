package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// snapshotSeeds returns the snapshot files of the v1 fixture in
// testdata/v1 (lits, dt and cluster sessions with window state) and the
// v2 snapshots of the same sessions, config-only as create writes them
// and compacted with their window state, each with its session name.
func snapshotSeeds(f *testing.F) (names []string, files [][]byte) {
	f.Helper()
	v1, err := filepath.Glob(filepath.Join("testdata", "v1", "sessions", "*", snapshotV1File))
	if err != nil || len(v1) == 0 {
		f.Fatalf("v1 fixture: %v", err)
	}
	fresh, _, err := OpenRegistry(f.TempDir(), 0)
	if err != nil {
		f.Fatal(err)
	}
	defer fresh.Close()
	for _, path := range v1 {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		var snap imageHeader
		var cfg SessionConfig
		if err := json.Unmarshal(raw, &snap); err != nil {
			f.Fatal(err)
		}
		if err := json.Unmarshal(snap.Config, &cfg); err != nil {
			f.Fatal(err)
		}
		if _, err := fresh.Create(cfg); err != nil {
			f.Fatal(err)
		}
		names, files = append(names, cfg.Name), append(files, raw)
	}
	// Compact-every 1 reseals every fixture session as v2 at boot.
	compacted := filepath.Join(f.TempDir(), "data")
	if err := os.CopyFS(compacted, os.DirFS(filepath.Join("testdata", "v1"))); err != nil {
		f.Fatal(err)
	}
	r, warns, err := OpenRegistry(compacted, 1)
	if err != nil || len(warns) > 0 {
		f.Fatalf("compacting the fixture: %v %v", err, warns)
	}
	r.Close()
	for _, root := range []string{fresh.store.dir, compacted} {
		for _, name := range names[:len(v1)] {
			raw, err := os.ReadFile(filepath.Join(root, "sessions", name, snapshotFile))
			if err != nil {
				f.Fatal(err)
			}
			names, files = append(names, name), append(files, raw)
		}
	}
	return names, files
}

// FuzzSnapshotRestore restores arbitrary bytes as a session's snapshot:
// a v2 snapshot when they start with its magic (the harness appends the
// checksum, so mutations reach the decoder behind it), else a v1
// snapshot.json. The same bytes are imported as a migrated session's
// image. No input may panic either path: each either fails to restore with
// an error, or restores to a session that imports into an in-memory
// registry with the same state and reports, and whose next compaction
// reseals it as a v2 snapshot that restores to the same state and reports.
func FuzzSnapshotRestore(f *testing.F) {
	names, files := snapshotSeeds(f)
	for i, file := range files {
		if bytes.HasPrefix(file, []byte(snapshotMagic)) {
			file = file[:len(file)-4]
		}
		f.Add(names[i], file)
	}
	f.Fuzz(func(t *testing.T, name string, data []byte) {
		if validName(name) != nil {
			return
		}
		root := t.TempDir()
		dir := filepath.Join(root, "sessions", name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		file := snapshotV1File
		if bytes.HasPrefix(data, []byte(snapshotMagic)) {
			file = snapshotFile
			data = binary.LittleEndian.AppendUint32(bytes.Clone(data), crc32.Checksum(data, castagnoli))
		}
		if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
			t.Fatal(err)
		}
		imported, ierr := NewRegistry().Import(name, data)
		r := NewRegistry()
		r.store = &Store{dir: root, compactEvery: DefaultCompactEvery}
		s, err := r.restoreSession(dir)
		if err != nil {
			return
		}
		want := fuzzFingerprint(t, s)
		if ierr != nil {
			t.Fatalf("restorable image does not import: %v", ierr)
		}
		if got := fuzzFingerprint(t, imported); got != want {
			t.Fatalf("image imports to\n%s\nrestores to\n%s", got, want)
		}
		s.mu.Lock()
		s.compactLocked()
		s.mu.Unlock()
		s.close()
		if _, err := os.Stat(filepath.Join(dir, snapshotV1File)); err == nil {
			t.Fatalf("compaction left the v1 snapshot behind")
		}
		again, err := r.restoreSession(dir)
		if err != nil {
			t.Fatalf("resealed snapshot does not restore: %v", err)
		}
		defer again.close()
		if got := fuzzFingerprint(t, again); got != want {
			t.Fatalf("resealed snapshot restores to\n%s\nwant\n%s", got, want)
		}
	})
}

// fuzzFingerprint renders a session's state and report ring.
func fuzzFingerprint(t *testing.T, s *Session) string {
	t.Helper()
	st, err := s.State()
	if err != nil {
		t.Fatal(err)
	}
	reports, alerts, err := s.Reports()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(map[string]any{"state": st, "reports": reports, "alerts": alerts})
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}
