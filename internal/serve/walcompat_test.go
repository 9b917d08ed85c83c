package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"focus/internal/serve"
	"focus/internal/wal"
)

// marshalWALRecord is the record the WAL held before records were framed
// from the request bytes: json.Marshal of the feed's two fields.
type marshalWALRecord struct {
	Epoch *int64          `json:"epoch,omitempty"`
	Rows  json.RawMessage `json:"rows"`
}

// TestReplayMarshalledWAL replays logs of json.Marshal records, the form
// written before records were framed from the request bytes —
// compacted, HTML-escaped rows, with and without epochs, negative epochs
// included — and requires the restored session to be byte-identical to an
// in-memory session fed the same batches. A rejected feed (a regressing
// epoch) is logged before intake, so its record must re-fail on replay,
// not stop it.
func TestReplayMarshalledWAL(t *testing.T) {
	for _, k := range durableKinds() {
		t.Run(k.name, func(t *testing.T) {
			cfg := parseConfig(t, k.cfg)
			var epochs []*int64
			for i := range k.batches {
				var e *int64
				if k.epochs {
					// The first feed's negative epoch regresses below the
					// initial 0 and is rejected; the rest climb from 1.
					v := int64(i)
					if i == 0 {
						v = -9
					}
					e = &v
				}
				epochs = append(epochs, e)
			}

			control := serve.NewRegistry()
			cs, err := control.Create(cfg)
			if err != nil {
				t.Fatalf("control create: %v", err)
			}
			for i, rows := range k.batches {
				if _, err := cs.Feed(epochs[i], json.RawMessage(rows)); err != nil && !(k.epochs && i == 0) {
					t.Fatalf("control batch %d: %v", i, err)
				}
			}
			want := sessionFingerprint(t, cs)

			dir := t.TempDir()
			r1, _, err := serve.OpenRegistry(dir, 1000)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r1.Create(cfg); err != nil {
				t.Fatal(err)
			}
			r1.Close()
			w, recs, err := wal.Open(filepath.Join(dir, "sessions", cfg.Name, "wal.000001.log"))
			if err != nil || len(recs) != 0 {
				t.Fatalf("opening the fresh log: %d records, %v", len(recs), err)
			}
			for i, rows := range k.batches {
				rec, err := json.Marshal(marshalWALRecord{Epoch: epochs[i], Rows: json.RawMessage(rows)})
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			r2, warns, err := serve.OpenRegistry(dir, 1000)
			if err != nil || len(warns) > 0 {
				t.Fatalf("reopen: %v %v", err, warns)
			}
			defer r2.Close()
			s2, ok := r2.Get(cfg.Name)
			if !ok {
				t.Fatalf("session %q not restored", cfg.Name)
			}
			if got := sessionFingerprint(t, s2); got != want {
				t.Fatalf("replayed marshalled log diverges\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// countRecords counts the records in a session's current WAL generation.
func countRecords(t *testing.T, dir, name string) int {
	t.Helper()
	logs, err := filepath.Glob(filepath.Join(dir, "sessions", name, "wal.*.log"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("%s logs %v: %v", name, logs, err)
	}
	w, recs, err := wal.Open(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	return len(recs)
}

// TestReplayMixedRecordForms replays one log holding all three record
// forms — binary records of decoded batches, text records framed from the
// request bytes, and json.Marshal records of the oldest logs — and
// requires the session to be byte-identical to an in-memory session fed
// the same batches.
func TestReplayMixedRecordForms(t *testing.T) {
	for _, k := range durableKinds() {
		t.Run(k.name, func(t *testing.T) {
			cfg := parseConfig(t, k.cfg)
			epoch := func(i int) *int64 {
				if !k.epochs {
					return nil
				}
				v := int64(10 + i)
				return &v
			}
			control := serve.NewRegistry()
			cs, err := control.Create(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range k.batches {
				feedKind(t, cs, k, i)
			}
			want := sessionFingerprint(t, cs)

			dir := t.TempDir()
			r1, _, err := serve.OpenRegistry(dir, 1000)
			if err != nil {
				t.Fatal(err)
			}
			s1, err := r1.Create(cfg)
			if err != nil {
				t.Fatal(err)
			}
			feedKind(t, s1, k, 0)
			feedKind(t, s1, k, 1)
			r1.Close()
			w, recs, err := wal.Open(filepath.Join(dir, "sessions", cfg.Name, "wal.000001.log"))
			if err != nil || len(recs) != 2 || recs[0][0] == '{' {
				t.Fatalf("log after two feeds: %d records, %v", len(recs), err)
			}
			for i := 2; i < len(k.batches); i++ {
				var rec []byte
				if i%2 == 0 {
					rec, err = json.Marshal(marshalWALRecord{Epoch: epoch(i), Rows: json.RawMessage(k.batches[i])})
					if err != nil {
						t.Fatal(err)
					}
				} else {
					rec = []byte(`{"rows":` + k.batches[i] + `}`)
					if e := epoch(i); e != nil {
						rec = []byte(fmt.Sprintf(`{"epoch":%d,"rows":%s}`, *e, k.batches[i]))
					}
				}
				if err := w.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			r2, warns, err := serve.OpenRegistry(dir, 1000)
			if err != nil || len(warns) > 0 {
				t.Fatalf("reopen: %v %v", err, warns)
			}
			defer r2.Close()
			s2, ok := r2.Get(cfg.Name)
			if !ok {
				t.Fatalf("session %q not restored", cfg.Name)
			}
			if got := sessionFingerprint(t, s2); got != want {
				t.Fatalf("mixed log diverges\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// TestFeedLogsOnlyDecodedBatches pins the decode-first intake: rows that
// do not decode, or hold no row, answer 400 and leave the log untouched,
// while a batch the monitor rejects (a regressing epoch) is logged and
// fails again on replay, so the restored session matches one that was
// never restarted.
func TestFeedLogsOnlyDecodedBatches(t *testing.T) {
	dir := t.TempDir()
	r1, _, err := serve.OpenRegistry(dir, 1000)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(r1.Handler())
	cfg := parseConfig(t, litsSession("s"))
	if _, err := r1.Create(cfg); err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{`{"rows": [[0, 99]]}`, `{"rows": [["a"]]}`, `{"rows": [[1]}`, `{"rows": []}`, `{"rows": null}`} {
		resp, err := http.Post(ts.URL+"/v1/sessions/s/batches", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
	ts.Close()

	control := serve.NewRegistry()
	cs, err := control.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := r1.Get("s")
	for _, feed := range []struct {
		epoch int64
		ok    bool
	}{{5, true}, {3, false}, {6, true}} {
		for _, s := range []*serve.Session{s1, cs} {
			e := feed.epoch
			if _, err := s.Feed(&e, json.RawMessage(`[[0,1],[2]]`)); (err == nil) != feed.ok {
				t.Fatalf("epoch %d: %v", feed.epoch, err)
			}
		}
	}
	r1.Close()
	if n := countRecords(t, dir, "s"); n != 3 {
		t.Fatalf("log holds %d records, want the 3 decoded feeds", n)
	}

	r2, warns, err := serve.OpenRegistry(dir, 1000)
	if err != nil || len(warns) > 0 {
		t.Fatalf("reopen: %v %v", err, warns)
	}
	defer r2.Close()
	s2, _ := r2.Get("s")
	for _, s := range []*serve.Session{s2, cs} {
		e := int64(7)
		if _, err := s.Feed(&e, json.RawMessage(`[[1,2]]`)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := sessionFingerprint(t, s2), sessionFingerprint(t, cs); got != want {
		t.Fatalf("replayed session diverges\n got: %s\nwant: %s", got, want)
	}
}
