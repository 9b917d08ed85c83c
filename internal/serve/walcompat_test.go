package serve_test

import (
	"encoding/json"
	"path/filepath"
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
