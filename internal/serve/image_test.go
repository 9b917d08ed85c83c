package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// imageSession is the create config of a session on one numeric attribute
// x and a class attribute: a dt session, or a cluster session keeping
// window batches.
func imageSession(t *testing.T, name, model string, window int) SessionConfig {
	t.Helper()
	var rows []string
	for i := 0; i < 200; i++ {
		rows = append(rows, fmt.Sprintf(`{"x": %d, "class": %q}`, (i*7)%100, string(rune('A'+i%2))))
	}
	var cfg SessionConfig
	err := json.Unmarshal([]byte(fmt.Sprintf(`{
		"name": %q,
		"model": %q,
		"schema": {
			"attrs": [
				{"name": "x", "kind": "numeric", "min": 0, "max": 100},
				{"name": "class", "kind": "categorical", "values": ["A", "B"]}
			],
			"class": "class"
		},
		"min_leaf": 5,
		"grid_attrs": ["x"],
		"window": %d,
		"reference": [%s]
	}`, name, model, window, strings.Join(rows, ","))), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// imageBatch is a feed of 40 rows shifted by shift.
func imageBatch(shift int) json.RawMessage {
	var rows []string
	for i := 0; i < 40; i++ {
		rows = append(rows, fmt.Sprintf(`{"x": %d, "class": "A"}`, (i*3+shift*29)%100))
	}
	return json.RawMessage("[" + strings.Join(rows, ",") + "]")
}

// readSnapshot parses the snapshot.bin of the named session under dir.
func readSnapshot(t *testing.T, dir, name string) snapshot {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "sessions", name, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := parseSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// rewriteHeader re-encodes an image with its JSON header edited by edit.
func rewriteHeader(t *testing.T, img []byte, edit func(*imageHeader)) []byte {
	t.Helper()
	snap, err := parseSnapshot(img)
	if err != nil {
		t.Fatal(err)
	}
	var hdr imageHeader
	if err := json.Unmarshal(snap.header, &hdr); err != nil {
		t.Fatal(err)
	}
	edit(&hdr)
	if snap.header, err = json.Marshal(&hdr); err != nil {
		t.Fatal(err)
	}
	return snap.encode()
}

// TestImportKeepsPinnedTree migrates a dt session between durable
// registries: the new owner's snapshot holds the reference and tree
// sections of the old owner's byte for byte. The same image with its
// config rewritten to a depth limit the tree exceeds still imports that
// tree, so import decodes the pinned tree and never regrows it.
func TestImportKeepsPinnedTree(t *testing.T) {
	cfg := imageSession(t, "dt", "dt", 2)
	srcDir, dstDir := t.TempDir(), t.TempDir()
	src, _, err := OpenRegistry(srcDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	s, err := src.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Feed(nil, imageBatch(1)); err != nil {
		t.Fatal(err)
	}
	img, err := s.Export(true)
	if err != nil {
		t.Fatal(err)
	}
	dst, _, err := OpenRegistry(dstDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if _, err := dst.Import("dt", img); err != nil {
		t.Fatal(err)
	}
	want, got := readSnapshot(t, srcDir, "dt"), readSnapshot(t, dstDir, "dt")
	if len(want.tree) == 0 || !bytes.Equal(got.tree, want.tree) || !bytes.Equal(got.ref, want.ref) {
		t.Fatalf("migrated pinned sections differ: tree %d vs %d bytes, ref %d vs %d bytes",
			len(got.tree), len(want.tree), len(got.ref), len(want.ref))
	}

	shallow := cfg
	shallow.MaxDepth = 1
	grown, err := NewRegistry().Create(shallow)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(grown.pinned().tree, want.tree) {
		t.Fatal("a depth-1 tree equals the pinned one; the test cannot tell decode from regrowth")
	}
	relabeled := rewriteHeader(t, img, func(hdr *imageHeader) {
		shallow.Reference = nil
		if hdr.Config, err = json.Marshal(&shallow); err != nil {
			t.Fatal(err)
		}
	})
	moved, err := NewRegistry().Import("dt", relabeled)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(moved.pinned().tree, want.tree) {
		t.Fatal("import regrew the pinned tree from the image's config")
	}
}

// TestImageRefused pins what neither restore nor import accepts: a
// compacted snapshot of a "window": 1 session rewritten to carry three
// window batches (spliced from a "window": 3 session fed the same
// batches) fails to restore, lands in OpenRegistry's warnings and answers
// 400 on import, and so does an image of an unsupported version.
func TestImageRefused(t *testing.T) {
	dir := t.TempDir()
	r, _, err := OpenRegistry(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []SessionConfig{imageSession(t, "w", "cluster", 1), imageSession(t, "x", "cluster", 3)} {
		s, err := r.Create(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := s.Feed(nil, imageBatch(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ws, _ := r.Get("w")
	healthy, err := ws.Export(false)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	w := readSnapshot(t, dir, "w")
	w.window = readSnapshot(t, dir, "x").window
	overfull := w.encode()
	if err := os.WriteFile(filepath.Join(dir, "sessions", "w", snapshotFile), overfull, 0o644); err != nil {
		t.Fatal(err)
	}
	r, warns, err := OpenRegistry(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if len(warns) != 1 || !strings.Contains(warns[0].Error(), `session "w"`) || !strings.Contains(warns[0].Error(), "3 batches") {
		t.Fatalf("restore warnings %v, want one for session w's window", warns)
	}
	if _, ok := r.Get("w"); ok {
		t.Fatal("the over-full snapshot restored")
	}

	ts := httptest.NewServer(NewRegistry().Handler())
	defer ts.Close()
	newer := rewriteHeader(t, healthy, func(hdr *imageHeader) { hdr.Version = snapshotVersion + 1 })
	for _, c := range []struct {
		name string
		img  []byte
		want int
	}{{"over-full", overfull, 400}, {"newer", newer, 400}, {"healthy", healthy, 201}} {
		resp, err := http.Post(ts.URL+"/v1/sessions/w/import", "application/octet-stream", bytes.NewReader(c.img))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s image: import answered %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	var se *statusError
	if _, err := NewRegistry().Import("w", newer); !errors.As(err, &se) || !strings.Contains(se.msg, "version 3 not supported") {
		t.Errorf("newer image: %v", err)
	}
}

// imageFingerprint renders a session's state and report ring as the
// external tests' sessionFingerprint does.
func imageFingerprint(t *testing.T, s *Session) string {
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

// TestRetiredSplitSearchImage restores and imports testdata/v2-hist,
// written before the hist split search was retired: a dt session created
// with "split_search": "hist" and "hist_bins": 16 and fed imageBatch 1-3,
// as a session directory (compacted after the second feed, its WAL
// holding the third) and as the session's exported image. Its pinned tree
// is the hist tree, which the exact search does not grow. A snapshot pins
// its tree, so both must bind that tree byte for byte and render the
// fingerprints the writing code rendered, before and after imageBatch(4);
// the restored session also across the compaction that feed triggers.
func TestRetiredSplitSearchImage(t *testing.T) {
	fixture := filepath.Join("testdata", "v2-hist")
	raw, err := os.ReadFile(filepath.Join(fixture, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for key, fp := range doc["dh"] {
		var buf bytes.Buffer
		if err := json.Compact(&buf, fp); err != nil {
			t.Fatal(err)
		}
		want[key] = buf.String()
	}
	var tree []byte
	if err := json.Unmarshal(doc["dh"]["tree"], &tree); err != nil {
		t.Fatal(err)
	}
	exact, err := NewRegistry().Create(imageSession(t, "dh", "dt", 2))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(exact.pinned().tree, tree) {
		t.Fatal("the exact tree equals the fixture's; the test cannot tell decode from regrowth")
	}
	check := func(s *Session, key string) {
		t.Helper()
		if !bytes.Equal(s.pinned().tree, tree) {
			t.Fatalf("%s: the pinned tree is not the fixture's", key)
		}
		if got := imageFingerprint(t, s); got != want[key] {
			t.Fatalf("%s fingerprint\n got: %s\nwant: %s", key, got, want[key])
		}
	}

	dir := t.TempDir()
	if err := os.CopyFS(filepath.Join(dir, "sessions"), os.DirFS(filepath.Join(fixture, "sessions"))); err != nil {
		t.Fatal(err)
	}
	for reopen := range 2 {
		r, warns, err := OpenRegistry(dir, 2)
		if err != nil || len(warns) > 0 {
			t.Fatalf("open: %v %v", err, warns)
		}
		s, ok := r.Get("dh")
		if !ok {
			t.Fatal("the hist session did not restore")
		}
		if reopen == 0 {
			check(s, "restored")
			if _, err := s.Feed(nil, imageBatch(4)); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(filepath.Join(dir, "sessions", "dh", "wal.000003.log")); err != nil {
				t.Fatalf("the feed did not compact: %v", err)
			}
		}
		check(s, "fed")
		r.Close()
	}

	img, err := os.ReadFile(filepath.Join(fixture, "export.bin"))
	if err != nil {
		t.Fatal(err)
	}
	dst := NewRegistry()
	ts := httptest.NewServer(dst.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/sessions/dh/import", "application/octet-stream", bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("import answered %d", resp.StatusCode)
	}
	s, _ := dst.Get("dh")
	check(s, "imported")
	if _, err := s.Feed(nil, imageBatch(4)); err != nil {
		t.Fatal(err)
	}
	check(s, "imported_fed")
}

// TestRetiredSplitSearchRefused pins that whatever would grow a tree for a
// config naming a retired split search is refused with the retired value
// in the message, never given the exact tree: a create answers 400, a
// version-1 JSON import (testdata/export-v1/dt.json relabeled) 400, and a
// v1 snapshot.json directory (testdata/v1's dt session relabeled) is left
// unrestored with a warning.
func TestRetiredSplitSearchRefused(t *testing.T) {
	ts := httptest.NewServer(NewRegistry().Handler())
	defer ts.Close()
	post := func(path string, body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var msg struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, msg.Error
	}
	export, err := os.ReadFile(filepath.Join("testdata", "export-v1", "dt.json"))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := os.ReadFile(filepath.Join("testdata", "v1", "sessions", "dt", snapshotV1File))
	if err != nil {
		t.Fatal(err)
	}
	for _, search := range []string{"hist", "auto"} {
		cfg := imageSession(t, "c-"+search, "dt", 2)
		cfg.SplitSearch = search
		body, err := json.Marshal(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		named := fmt.Sprintf("%q", search)
		if code, msg := post("/v1/sessions", body); code != http.StatusBadRequest || !strings.Contains(msg, named) {
			t.Errorf("create naming %s: %d %s", search, code, msg)
		}

		relabel := func(doc []byte) []byte {
			return bytes.Replace(doc, []byte(`"model":"dt"`), []byte(`"model":"dt","split_search":`+named), 1)
		}
		if code, msg := post("/v1/sessions/dt/import", relabel(export)); code != http.StatusBadRequest || !strings.Contains(msg, named) {
			t.Errorf("version-1 import naming %s: %d %s", search, code, msg)
		}

		dir := t.TempDir()
		sdir := filepath.Join(dir, "sessions", "dt")
		if err := os.CopyFS(sdir, os.DirFS(filepath.Join("testdata", "v1", "sessions", "dt"))); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sdir, snapshotV1File), relabel(v1), 0o644); err != nil {
			t.Fatal(err)
		}
		r, warns, err := OpenRegistry(dir, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(warns) != 1 || !strings.Contains(warns[0].Error(), named) {
			t.Errorf("v1 snapshot naming %s: restore warnings %v", search, warns)
		}
		if _, ok := r.Get("dt"); ok {
			t.Errorf("v1 snapshot naming %s restored", search)
		}
		r.Close()
	}
}
