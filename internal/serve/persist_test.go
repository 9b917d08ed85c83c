package serve_test

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"focus/internal/serve"
)

// durableKind is one cell of the restore-equivalence matrix: a session
// config plus a deterministic batch stream.
type durableKind struct {
	name    string
	cfg     string
	batches []string // rows payloads
	epochs  bool     // feed with explicit epochs
}

func durableKinds() []durableKind {
	litsBatches := func() []string {
		var batches []string
		for b := 0; b < 6; b++ {
			var rows []string
			for i := 0; i < 150; i++ {
				rows = append(rows, fmt.Sprintf("[%d,%d]", (i+b*2)%9, (i+b)%4+6))
			}
			batches = append(batches, "["+strings.Join(rows, ",")+"]")
		}
		return batches
	}
	tupleBatches := func() []string {
		var batches []string
		for b := 0; b < 6; b++ {
			var rows []string
			for i := 0; i < 60; i++ {
				cls := "A"
				if (i+b)%3 == 0 {
					cls = "B"
				}
				rows = append(rows, fmt.Sprintf(`{"x": %d, "class": %q}`, (i*11+b*17)%100, cls))
			}
			batches = append(batches, "["+strings.Join(rows, ",")+"]")
		}
		return batches
	}
	clusterBatches := []string{uniformRows(), driftRows(), uniformRows(), driftRows(), driftRows(), uniformRows()}
	return []durableKind{
		{
			// Qualification pins the RNG stream: the restored session must
			// reproduce the exact bootstrap null distributions.
			name: "cluster-qualified",
			cfg: strings.Replace(clusterSession("cq"), `"threshold": 0.5`,
				`"threshold": 0.5, "qualify": true, "replicates": 19, "seed": 7`, 1),
			batches: clusterBatches,
		},
		{
			// Names the retired "counter" field, as the v1 fixtures of this
			// kind do: it must still restore and import.
			name:    "lits-bitmap-window2",
			cfg:     litsSessionCounter("lb", "bitmap"),
			batches: litsBatches(),
			epochs:  true,
		},
		{
			name:    "dt",
			cfg:     dtSession("dt"),
			batches: tupleBatches(),
		},
		{
			// No pinned reference: the first window is promoted, so the
			// snapshot must carry the promoted reference rows.
			name: "cluster-previous-window",
			cfg: `{
				"name": "pw",
				"model": "cluster",
				"schema": {"attrs": [{"name": "x", "kind": "numeric", "min": 0, "max": 100}]},
				"grid_attrs": ["x"],
				"grid_bins": 4,
				"window": 2,
				"threshold": 0.5,
				"previous_window": true
			}`,
			batches: clusterBatches,
		},
	}
}

func parseConfig(t *testing.T, raw string) serve.SessionConfig {
	t.Helper()
	var cfg serve.SessionConfig
	if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
		t.Fatalf("decoding session config: %v", err)
	}
	return cfg
}

func feedKind(t *testing.T, s *serve.Session, k durableKind, i int) {
	t.Helper()
	var epoch *int64
	if k.epochs {
		e := int64(10 + i)
		epoch = &e
	}
	if _, err := s.Feed(epoch, json.RawMessage(k.batches[i])); err != nil {
		t.Fatalf("batch %d: %v", i, err)
	}
}

// sessionFingerprint renders everything a client can observe about a
// session — full state plus the retained report ring — as one JSON blob.
func sessionFingerprint(t *testing.T, s *serve.Session) string {
	t.Helper()
	st, err := s.State()
	if err != nil {
		t.Fatalf("State: %v", err)
	}
	reports, alerts, err := s.Reports()
	if err != nil {
		t.Fatalf("Reports: %v", err)
	}
	blob, err := json.Marshal(map[string]any{"state": st, "reports": reports, "alerts": alerts})
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestDurableRestoreEquivalence is the acceptance test of the durability
// contract at the registry layer: for every model class — including a
// qualified session (RNG stream) and a previous-window session (promoted
// reference) — create a durable session, feed k batches, abandon the
// registry without closing it (a crash: nothing is flushed beyond the
// write-ahead appends), reopen the data directory, feed the remaining
// batches, and require the observable session state to be bit-identical
// to an uninterrupted in-memory run. compact-every of 2 forces several
// snapshot compactions inside the stream, so every boot path — config-only
// snapshot, snapshot+WAL, compact-on-boot — is crossed.
func TestDurableRestoreEquivalence(t *testing.T) {
	for _, k := range durableKinds() {
		t.Run(k.name, func(t *testing.T) {
			cfg := parseConfig(t, k.cfg)
			n := len(k.batches)

			control := serve.NewRegistry()
			cs, err := control.Create(cfg)
			if err != nil {
				t.Fatalf("control create: %v", err)
			}
			for i := 0; i < n; i++ {
				feedKind(t, cs, k, i)
			}
			want := sessionFingerprint(t, cs)

			for split := 0; split <= n; split++ {
				dir := t.TempDir()
				r1, warns, err := serve.OpenRegistry(dir, 2)
				if err != nil {
					t.Fatalf("split %d: OpenRegistry: %v", split, err)
				}
				if len(warns) > 0 {
					t.Fatalf("split %d: warnings on fresh dir: %v", split, warns)
				}
				s1, err := r1.Create(cfg)
				if err != nil {
					t.Fatalf("split %d: create: %v", split, err)
				}
				for i := 0; i < split; i++ {
					feedKind(t, s1, k, i)
				}
				// Crash: r1 is abandoned, not closed.

				r2, warns, err := serve.OpenRegistry(dir, 2)
				if err != nil {
					t.Fatalf("split %d: reopen: %v", split, err)
				}
				if len(warns) > 0 {
					t.Fatalf("split %d: restore warnings: %v", split, warns)
				}
				s2, ok := r2.Get(cfg.Name)
				if !ok {
					t.Fatalf("split %d: session %q not restored", split, cfg.Name)
				}
				for i := split; i < n; i++ {
					feedKind(t, s2, k, i)
				}
				if got := sessionFingerprint(t, s2); got != want {
					t.Fatalf("split %d: restored fingerprint diverges\n got: %s\nwant: %s", split, got, want)
				}
				r2.Close()
			}
		})
	}
}

// TestDurableWALDamage pins the recovery semantics of a damaged log: a
// torn trailing record (truncated mid-write by a crash) and a
// corrupt-checksum tail are silently dropped — the session restores to the
// state of the surviving prefix — never a fatal error.
func TestDurableWALDamage(t *testing.T) {
	damage := []struct {
		name string
		hurt func(t *testing.T, path string)
	}{
		{"truncated-tail", func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-5); err != nil {
				t.Fatal(err)
			}
		}},
		{"corrupt-checksum", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0xff
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			k := durableKinds()[0] // cluster-qualified
			cfg := parseConfig(t, k.cfg)

			// Control: the first two batches only — the damaged third must
			// vanish.
			control := serve.NewRegistry()
			cs, err := control.Create(cfg)
			if err != nil {
				t.Fatal(err)
			}
			feedKind(t, cs, k, 0)
			feedKind(t, cs, k, 1)
			want := sessionFingerprint(t, cs)

			dir := t.TempDir()
			// A compaction threshold above the feed count keeps all three
			// batches in generation-1 WAL.
			r1, _, err := serve.OpenRegistry(dir, 100)
			if err != nil {
				t.Fatal(err)
			}
			s1, err := r1.Create(cfg)
			if err != nil {
				t.Fatal(err)
			}
			feedKind(t, s1, k, 0)
			feedKind(t, s1, k, 1)
			feedKind(t, s1, k, 2)

			d.hurt(t, filepath.Join(dir, "sessions", cfg.Name, "wal.000001.log"))

			r2, warns, err := serve.OpenRegistry(dir, 100)
			if err != nil {
				t.Fatalf("reopen after %s: %v", d.name, err)
			}
			if len(warns) > 0 {
				t.Fatalf("damage must not warn (dropped tails are expected): %v", warns)
			}
			s2, ok := r2.Get(cfg.Name)
			if !ok {
				t.Fatalf("session lost to a damaged wal tail")
			}
			if got := sessionFingerprint(t, s2); got != want {
				t.Fatalf("restored state after %s\n got: %s\nwant: %s", d.name, got, want)
			}
			// The recovered log is usable: the dropped batch can be re-fed.
			feedKind(t, s2, k, 2)
			r2.Close()
		})
	}
}

// TestDurableDelete pins that delete removes the durable state: a deleted
// session must not resurrect on restart, and its directory is gone.
func TestDurableDelete(t *testing.T) {
	dir := t.TempDir()
	r1, _, err := serve.OpenRegistry(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := parseConfig(t, litsSession("gone"))
	s, err := r1.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Feed(nil, json.RawMessage(`[[0,1],[2]]`)); err != nil {
		t.Fatal(err)
	}
	if !r1.Delete("gone") {
		t.Fatal("delete reported missing session")
	}
	if _, err := os.Stat(filepath.Join(dir, "sessions", "gone")); !os.IsNotExist(err) {
		t.Fatalf("session directory survives delete: %v", err)
	}
	r2, warns, err := serve.OpenRegistry(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) > 0 {
		t.Fatalf("warnings: %v", warns)
	}
	if names := r2.Names(); len(names) != 0 {
		t.Fatalf("deleted session resurrected: %v", names)
	}
}

// TestDurableUnrestorableSkipped pins graceful degradation: a session
// directory whose snapshot is garbage is skipped with a warning; healthy
// sessions still restore.
func TestDurableUnrestorableSkipped(t *testing.T) {
	dir := t.TempDir()
	r1, _, err := serve.OpenRegistry(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Create(parseConfig(t, litsSession("ok"))); err != nil {
		t.Fatal(err)
	}
	r1.Close()

	bad := filepath.Join(dir, "sessions", "bad")
	if err := os.MkdirAll(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, "snapshot.bin"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	r2, warns, err := serve.OpenRegistry(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 1 || !strings.Contains(warns[0].Error(), `"bad"`) {
		t.Fatalf("warnings = %v, want one naming the bad session", warns)
	}
	if names := r2.Names(); len(names) != 1 || names[0] != "ok" {
		t.Fatalf("restored %v, want [ok]", names)
	}
}

// TestConcurrentCreate races G creates of one name: exactly one must win
// with 201 and the rest 409, and the reservation must be taken before the
// expensive model bind (two racing winners would both publish otherwise —
// run under -race this also pins the map accesses).
func TestConcurrentCreate(t *testing.T) {
	ts := newServer(t)
	const g = 8
	codes := make([]int, g)
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _ := do(t, ts, "POST", "/v1/sessions", dtSession("contested"))
			codes[i] = code
		}(i)
	}
	wg.Wait()
	created, conflicted := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusCreated:
			created++
		case http.StatusConflict:
			conflicted++
		default:
			t.Fatalf("unexpected status %d (all: %v)", c, codes)
		}
	}
	if created != 1 || conflicted != g-1 {
		t.Fatalf("created=%d conflicted=%d, want 1 and %d (all: %v)", created, conflicted, g-1, codes)
	}
}

// TestCreateReservationReleased pins that a failed bind releases the name:
// an invalid create must not poison the name for a later valid one.
func TestCreateReservationReleased(t *testing.T) {
	ts := newServer(t)
	invalid := strings.Replace(litsSession("re"), `"min_support": 0.2`, `"min_support": 5`, 1)
	if code, _ := do(t, ts, "POST", "/v1/sessions", invalid); code != http.StatusBadRequest {
		t.Fatalf("invalid create: %d", code)
	}
	if code, body := do(t, ts, "POST", "/v1/sessions", litsSession("re")); code != http.StatusCreated {
		t.Fatalf("create after failed bind: %d %v", code, body)
	}
}

// TestDeleteFeedChurn hammers one session name with concurrent feeds,
// state reads, deletes and recreates. Run under -race this pins the
// delete/feed race: a feed must either land entirely before the delete or
// observe the closed session and 404 — never touch freed state. Every
// response must be 200, 404 (deleted between resolve and use) or 409
// (recreate racing another recreate).
func TestDeleteFeedChurn(t *testing.T) {
	ts := newServer(t)
	if code, _ := do(t, ts, "POST", "/v1/sessions", clusterSession("churn")); code != 201 {
		t.Fatal("initial create failed")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := fmt.Sprintf(`{"rows": %s}`, uniformRows())
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, _ := do(t, ts, "POST", "/v1/sessions/churn/batches", body)
				if code != 200 && code != 404 {
					t.Errorf("feed status %d", code)
					return
				}
				code, _ = do(t, ts, "GET", "/v1/sessions/churn", "")
				if code != 200 && code != 404 {
					t.Errorf("state status %d", code)
					return
				}
			}
		}()
	}
	for round := 0; round < 10; round++ {
		if code, _ := do(t, ts, "DELETE", "/v1/sessions/churn", ""); code != 204 && code != 404 {
			t.Fatalf("delete status %d", code)
		}
		if code, _ := do(t, ts, "POST", "/v1/sessions", clusterSession("churn")); code != 201 && code != 409 {
			t.Fatalf("recreate status %d", code)
		}
	}
	close(stop)
	wg.Wait()
}

// TestClosedSessionHandle pins the session-handle lifecycle directly: a
// handle resolved before a delete answers 404 to feeds, state and reports
// afterwards.
func TestClosedSessionHandle(t *testing.T) {
	r := serve.NewRegistry()
	s, err := r.Create(parseConfig(t, litsSession("x")))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Delete("x") {
		t.Fatal("delete failed")
	}
	if _, err := s.Feed(nil, json.RawMessage(`[[0]]`)); err == nil {
		t.Fatal("feed into deleted session succeeded")
	}
	if _, err := s.State(); err == nil {
		t.Fatal("state of deleted session succeeded")
	}
	if _, _, err := s.Reports(); err == nil {
		t.Fatal("reports of deleted session succeeded")
	}
}

// snapshotConfigBytes reads the raw config value of a session's snapshot.
func snapshotConfigBytes(t *testing.T, dir, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "sessions", name, "snapshot.bin"))
	if err != nil {
		t.Fatal(err)
	}
	return imageConfigBytes(t, raw)
}

// imageConfigBytes reads the raw config value of a session image: the
// "config" of the JSON header section that follows the 8-byte magic.
func imageConfigBytes(t *testing.T, raw []byte) string {
	t.Helper()
	n, k := binary.Uvarint(raw[8:])
	if k <= 0 || uint64(len(raw)-8-k) < n {
		t.Fatalf("snapshot header malformed")
	}
	var header map[string]json.RawMessage
	if err := json.Unmarshal(raw[8+k:8+k+int(n)], &header); err != nil {
		t.Fatal(err)
	}
	return string(header["config"])
}

// TestCompactionKeepsConfigBytes pins that the config a session was
// created with travels unchanged: create writes it without its reference
// rows, compaction carries those bytes into each new snapshot, and Export
// ships the same bytes in the session image.
func TestCompactionKeepsConfigBytes(t *testing.T) {
	for _, k := range durableKinds() {
		t.Run(k.name, func(t *testing.T) {
			dir := t.TempDir()
			r, _, err := serve.OpenRegistry(dir, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			cfg := parseConfig(t, k.cfg)
			s, err := r.Create(cfg)
			if err != nil {
				t.Fatal(err)
			}
			noRef := cfg
			noRef.Reference = nil
			wrote := snapshotConfigBytes(t, dir, cfg.Name)
			if want, _ := json.Marshal(&noRef); wrote != string(want) {
				t.Fatalf("create wrote config %s, want %s", wrote, want)
			}
			for i := 0; i < 5; i++ {
				feedKind(t, s, k, i)
			}
			if _, err := os.Stat(filepath.Join(dir, "sessions", cfg.Name, "wal.000003.log")); err != nil {
				t.Fatalf("two compactions expected: %v", err)
			}
			if got := snapshotConfigBytes(t, dir, cfg.Name); got != wrote {
				t.Fatalf("compacted config %s, create wrote %s", got, wrote)
			}
			img, err := s.Export(false)
			if err != nil {
				t.Fatal(err)
			}
			if got := imageConfigBytes(t, img); got != wrote {
				t.Fatalf("exported config %s, create wrote %s", got, wrote)
			}
		})
	}
}
