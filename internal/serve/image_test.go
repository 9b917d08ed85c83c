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
