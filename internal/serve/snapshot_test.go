package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"focus/internal/serve"
)

// fixtureWant reads the want.json of a fixture under testdata: per
// session, fingerprints the code that wrote the fixture rendered, compacted
// back to the bytes sessionFingerprint renders.
func fixtureWant(t *testing.T, fixture string) map[string]map[string]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", fixture, "want.json"))
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
	// Per session: the fingerprint the v1 code rendered right after
	// restoring the fixture ("restored") and after one more feed ("fed").
	want := fixtureWant(t, "v1")
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

// TestExportV1Import imports testdata/export-v1: the version-1 JSON export
// documents that members sent before the session image was the migration
// form, one per durable kind, written after four feeds. Each must import
// into a durable member as it imported into the code that wrote it,
// survive the member's restart, and go on reporting byte-identically to a
// session that never moved, also after it migrates once more as this
// version's image.
func TestExportV1Import(t *testing.T) {
	// Per session: the fingerprint the exporting code rendered right after
	// importing the document ("imported") and after one more feed ("fed").
	want := fixtureWant(t, "export-v1")
	for _, k := range durableKinds() {
		t.Run(k.name, func(t *testing.T) {
			name := parseConfig(t, k.cfg).Name
			doc, err := os.ReadFile(filepath.Join("testdata", "export-v1", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			dst, _, err := serve.OpenRegistry(dir, 2)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(dst.Handler())
			if code, _, body := raw(t, ts, "POST", "/v1/sessions/"+name+"/import", string(doc)); code != 201 {
				t.Fatalf("import: %d: %s", code, body)
			}
			ts.Close()
			moved, _ := dst.Get(name)
			if got := sessionFingerprint(t, moved); got != want[name]["imported"] {
				t.Fatalf("imported fingerprint\n got: %s\nwant: %s", got, want[name]["imported"])
			}
			dst.Close()
			dst, warns, err := serve.OpenRegistry(dir, 2)
			if err != nil || len(warns) > 0 {
				t.Fatalf("reopen: %v %v", err, warns)
			}
			defer dst.Close()
			moved, ok := dst.Get(name)
			if !ok {
				t.Fatal("imported session not restored")
			}
			feedKind(t, moved, k, 4)
			if got := sessionFingerprint(t, moved); got != want[name]["fed"] {
				t.Fatalf("fingerprint after a feed\n got: %s\nwant: %s", got, want[name]["fed"])
			}
			control, err := serve.NewRegistry().Create(parseConfig(t, k.cfg))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i <= 4; i++ {
				feedKind(t, control, k, i)
			}
			if got := sessionFingerprint(t, control); got != want[name]["fed"] {
				t.Fatalf("a session that never moved renders\n%s\nwant\n%s", got, want[name]["fed"])
			}

			// Migrate it on as this version's image, into a durable member
			// that restarts: it goes on reporting as the control does.
			img, err := moved.Export(true)
			if err != nil {
				t.Fatal(err)
			}
			again := t.TempDir()
			next, _, err := serve.OpenRegistry(again, 2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := next.Import(name, img); err != nil {
				t.Fatal(err)
			}
			next.Close()
			next, warns, err = serve.OpenRegistry(again, 2)
			if err != nil || len(warns) > 0 {
				t.Fatalf("reopen after the second move: %v %v", err, warns)
			}
			defer next.Close()
			moved, _ = next.Get(name)
			feedKind(t, moved, k, 5)
			feedKind(t, control, k, 5)
			if got, w := sessionFingerprint(t, moved), sessionFingerprint(t, control); got != w {
				t.Fatalf("migrated session diverges\n got: %s\nwant: %s", got, w)
			}
		})
	}
}
