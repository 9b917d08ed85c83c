package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"focus/internal/serve"
)

// v1Want reads testdata/v1/want.json: per session, the fingerprint the
// v1 code rendered right after restoring the fixture ("restored") and
// after feeding it one more batch ("fed"), compacted back to the bytes
// sessionFingerprint renders.
func v1Want(t *testing.T) map[string]map[string]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "v1", "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]map[string]string)
	for name, fps := range doc {
		want[name] = make(map[string]string)
		for key, fp := range fps {
			var buf bytes.Buffer
			if err := json.Compact(&buf, fp); err != nil {
				t.Fatal(err)
			}
			want[name][key] = buf.String()
		}
	}
	return want
}

// sessionFiles lists the files of one session directory.
func sessionFiles(t *testing.T, dir, name string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "sessions", name))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestV1SnapshotCompat restores testdata/v1, session directories of every
// durable kind written by the v1 snapshot code (snapshot.json holding the
// window state of four compacted feeds, and a WAL generation holding a
// fifth), created with compact-every 2 from durableKinds. The restored
// sessions must render the fingerprints the v1 code rendered, before and
// after one more feed; that feed compacts, which must leave only a v2
// snapshot that restores to the same fingerprint. A directory holding both
// snapshots (a crash between the v2 rename and the v1 removal) restores
// from the v2 one and sweeps the v1 file.
func TestV1SnapshotCompat(t *testing.T) {
	want := v1Want(t)
	dir := filepath.Join(t.TempDir(), "data")
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "v1"))); err != nil {
		t.Fatal(err)
	}
	r, warns, err := serve.OpenRegistry(dir, 2)
	if err != nil || len(warns) > 0 {
		t.Fatalf("open: %v %v", err, warns)
	}
	kinds := durableKinds()
	for _, k := range kinds {
		name := parseConfig(t, k.cfg).Name
		s, ok := r.Get(name)
		if !ok {
			t.Fatalf("session %q not restored", name)
		}
		if got := sessionFingerprint(t, s); got != want[name]["restored"] {
			t.Fatalf("%s: restored v1 fingerprint\n got: %s\nwant: %s", name, got, want[name]["restored"])
		}
		if files := sessionFiles(t, dir, name); !slices.Equal(files, []string{"snapshot.json", "wal.000003.log"}) {
			t.Fatalf("%s: files before compaction %v", name, files)
		}
		feedKind(t, s, k, 5)
		if got := sessionFingerprint(t, s); got != want[name]["fed"] {
			t.Fatalf("%s: fingerprint after a feed\n got: %s\nwant: %s", name, got, want[name]["fed"])
		}
		if files := sessionFiles(t, dir, name); !slices.Equal(files, []string{"snapshot.bin", "wal.000004.log"}) {
			t.Fatalf("%s: files after compaction %v, want only the v2 snapshot and its log", name, files)
		}
	}
	r.Close()

	for _, both := range []bool{false, true} {
		if both {
			for _, k := range kinds {
				name := parseConfig(t, k.cfg).Name
				v1, err := os.ReadFile(filepath.Join("testdata", "v1", "sessions", name, "snapshot.json"))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, "sessions", name, "snapshot.json"), v1, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		r, warns, err := serve.OpenRegistry(dir, 2)
		if err != nil || len(warns) > 0 {
			t.Fatalf("reopen (both=%v): %v %v", both, err, warns)
		}
		for _, k := range kinds {
			name := parseConfig(t, k.cfg).Name
			s, _ := r.Get(name)
			if got := sessionFingerprint(t, s); got != want[name]["fed"] {
				t.Fatalf("%s (both=%v): v2 restore diverges\n got: %s\nwant: %s", name, both, got, want[name]["fed"])
			}
			if files := sessionFiles(t, dir, name); !slices.Equal(files, []string{"snapshot.bin", "wal.000004.log"}) {
				t.Fatalf("%s (both=%v): files after restore %v", name, both, files)
			}
		}
		r.Close()
	}
}

// TestExportVersionStable pins the export document's version at 1,
// whatever the snapshot format: a version-1 document exported by a durable
// member imports into another durable member, survives its restart, and
// goes on reporting byte-identically to a session that never moved.
func TestExportVersionStable(t *testing.T) {
	for _, k := range durableKinds() {
		t.Run(k.name, func(t *testing.T) {
			cfg := parseConfig(t, k.cfg)
			n := len(k.batches)
			control := serve.NewRegistry()
			cs, err := control.Create(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				feedKind(t, cs, k, i)
			}
			want := sessionFingerprint(t, cs)

			src, _, err := serve.OpenRegistry(t.TempDir(), 2)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			s, err := src.Create(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n/2+1; i++ {
				feedKind(t, s, k, i)
			}
			ts := httptest.NewServer(src.Handler())
			defer ts.Close()
			code, _, doc := raw(t, ts, "POST", "/v1/sessions/"+cfg.Name+"/export?drain=1", "")
			if code != 200 {
				t.Fatalf("export: %d: %s", code, doc)
			}
			if !strings.HasPrefix(doc, `{"version":1,`) {
				t.Fatalf("export document %.40s..., want version 1", doc)
			}

			dstDir := t.TempDir()
			dst, _, err := serve.OpenRegistry(dstDir, 2)
			if err != nil {
				t.Fatal(err)
			}
			dts := httptest.NewServer(dst.Handler())
			if code, _, body := raw(t, dts, "POST", "/v1/sessions/import", doc); code != 201 {
				t.Fatalf("import: %d: %s", code, body)
			}
			dts.Close()
			dst.Close()
			dst, warns, err := serve.OpenRegistry(dstDir, 2)
			if err != nil || len(warns) > 0 {
				t.Fatalf("reopen: %v %v", err, warns)
			}
			defer dst.Close()
			moved, ok := dst.Get(cfg.Name)
			if !ok {
				t.Fatal("imported session not restored")
			}
			for i := n/2 + 1; i < n; i++ {
				feedKind(t, moved, k, i)
			}
			if got := sessionFingerprint(t, moved); got != want {
				t.Fatalf("migrated session diverges\n got: %s\nwant: %s", got, want)
			}
		})
	}
}
