package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
)

// walTestSessions returns an in-memory tuple session, over a numeric and
// a categorical attribute, and a lits session over 10 items.
func walTestSessions(t testing.TB) (tuples, txns *Session) {
	t.Helper()
	r := NewRegistry()
	var out []*Session
	for _, raw := range []string{
		`{"name": "tuples", "model": "cluster", "grid_attrs": ["x"], "grid_bins": 4,
			"schema": {"attrs": [{"name": "x", "kind": "numeric", "min": 0, "max": 100},
				{"name": "c", "kind": "categorical", "values": ["A", "B"]}]},
			"reference": [{"x": 1, "c": "A"}, {"x": 60, "c": "B"}]}`,
		`{"name": "txns", "model": "lits", "num_items": 10, "min_support": 0.2, "reference": [[0,1],[0,1],[2]]}`,
	} {
		var cfg SessionConfig
		if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
			t.Fatal(err)
		}
		s, err := r.Create(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out[0], out[1]
}

// binaryRecord decodes rows on s and frames them as the record Feed logs.
func binaryRecord(t testing.TB, s *Session, epoch *int64, rows string) []byte {
	t.Helper()
	b, err := s.decode(json.RawMessage(rows))
	if err != nil {
		t.Fatalf("rows %s: %v", rows, err)
	}
	return s.appendRecord(nil, epoch, b)
}

// tupleRecord hand-builds a binary tuple record of (x, c) rows.
func tupleRecord(vals ...float64) []byte {
	buf := binary.AppendUvarint([]byte{walTuples}, uint64(len(vals)/2))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// FuzzWALRecord reads arbitrary bytes as a WAL record of a tuple session
// and of a lits session. No input may panic. An input must be rejected as
// corrupt, skipped as an older text record whose rows do not decode, or
// yield a feed whose binary record reads back to itself; a binary input
// must be that record byte for byte.
func FuzzWALRecord(f *testing.F) {
	tuples, txns := walTestSessions(f)
	i64 := func(v int64) *int64 { return &v }
	tupleRows := `[{"x": 1.5, "c": "A"}, {"x": -0, "c": "B"}, {"x": 100, "c": "A"}]`
	txnRows := `[[3,1,3],[],[9,0],null]`
	for _, epoch := range []*int64{nil, i64(0), i64(-7), i64(math.MaxInt64), i64(math.MinInt64)} {
		f.Add(binaryRecord(f, tuples, epoch, tupleRows))
		f.Add(binaryRecord(f, txns, epoch, txnRows))
		for _, rows := range []string{tupleRows, txnRows, `[{"x": "no"}]`, `[]`} {
			f.Add(appendWALRecord(nil, epoch, []byte(rows)))
			old, err := json.Marshal(marshalWALRecord{Epoch: epoch, Rows: json.RawMessage(rows)})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(old)
		}
	}
	f.Add(tupleRecord(math.NaN(), 0))
	f.Add(tupleRecord(1, 2))
	f.Add([]byte{walTxns, 1, 2, 5, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, rec []byte) {
		for _, s := range []*Session{tuples, txns} {
			epoch, b, ok, err := s.readWALRecord(rec)
			if err != nil {
				continue
			}
			if !ok {
				if rec[0] != '{' {
					t.Fatalf("%s: binary record %x skipped, not rejected", s.name, rec)
				}
				continue
			}
			bin := s.appendRecord(nil, epoch, b)
			if rec[0] != '{' && !bytes.Equal(bin, rec) {
				t.Fatalf("%s: record %x re-encodes to %x", s.name, rec, bin)
			}
			epoch2, b2, ok2, err := s.readWALRecord(bin)
			if err != nil || !ok2 {
				t.Fatalf("%s: re-encoded record %x of %q: ok %v, %v", s.name, bin, rec, ok2, err)
			}
			if (epoch == nil) != (epoch2 == nil) || epoch != nil && *epoch != *epoch2 {
				t.Fatalf("%s: record %q: epoch %v reads back as %v", s.name, rec, epoch, epoch2)
			}
			if again := s.appendRecord(nil, epoch2, b2); !bytes.Equal(again, bin) {
				t.Fatalf("%s: record %x reads back as %x", s.name, bin, again)
			}
		}
	})
}

// TestBinaryRecordRejects pins the records no feed can have written: each
// is corrupt on the session it is read on.
func TestBinaryRecordRejects(t *testing.T) {
	tuples, txns := walTestSessions(t)
	valid := tupleRecord(1, 0)
	if _, _, ok, err := tuples.readWALRecord(valid); err != nil || !ok {
		t.Fatalf("valid tuple record: ok %v, %v", ok, err)
	}
	for _, c := range []struct {
		name string
		s    *Session
		rec  []byte
	}{
		{"nan", tuples, tupleRecord(math.NaN(), 0)},
		{"inf", tuples, tupleRecord(math.Inf(1), 0)},
		{"numeric-outside-domain", tuples, tupleRecord(100.5, 0)},
		{"code-outside-domain", tuples, tupleRecord(1, 2)},
		{"code-negative", tuples, tupleRecord(1, -1)},
		{"code-fraction", tuples, tupleRecord(1, 0.5)},
		{"code-negative-zero", tuples, tupleRecord(1, math.Copysign(0, -1))},
		{"no-rows", tuples, tupleRecord()},
		{"short-row", tuples, valid[:len(valid)-1]},
		{"trailing-byte", tuples, append(tupleRecord(1, 0), 0)},
		{"overlong-count", tuples, append([]byte{walTuples, 0x81, 0x00}, valid[2:]...)},
		{"overlong-epoch", tuples, append([]byte{walTuples | walHasEpoch, 0x80, 0x00}, valid[1:]...)},
		{"missing-epoch", tuples, []byte{walTuples | walHasEpoch}},
		{"txn-tag", tuples, append([]byte{walTxns}, valid[1:]...)},
		{"no-tag", tuples, nil},
		{"unknown-tag", txns, []byte{0x7f, 1, 1, 1}},
		{"tuple-tag", txns, []byte{walTuples, 1, 1, 1}},
		{"unsorted", txns, []byte{walTxns, 1, 2, 3, 1}},
		{"duplicate", txns, []byte{walTxns, 1, 2, 1, 1}},
		{"outside-universe", txns, []byte{walTxns, 1, 1, 10}},
		{"count-past-end", txns, []byte{walTxns, 5, 0}},
		{"row-past-end", txns, []byte{walTxns, 1, 3, 1}},
		{"trailing-txn-byte", txns, []byte{walTxns, 1, 1, 1, 0}},
		{"overlong-item", txns, []byte{walTxns, 1, 1, 0x81, 0x00}},
		{"no-txns", txns, []byte{walTxns, 0}},
	} {
		if _, _, _, err := c.s.readWALRecord(c.rec); err == nil {
			t.Errorf("%s: record %x read on %s", c.name, c.rec, c.s.name)
		}
	}
}
