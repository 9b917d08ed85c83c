package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"focus/internal/txn"
)

// oracleDecodeTxnRows is the encoding/json transaction-row decode the
// scanner replaced: the rows into [][]int64, then a range check of every
// item. It is the oracle of FuzzDecodeTxnRows.
func oracleDecodeTxnRows(numItems int, raw json.RawMessage) (*txn.Dataset, error) {
	var rows [][]int64
	if err := json.Unmarshal(raw, &rows); err != nil {
		return nil, fmt.Errorf("rows must be an array of item-id arrays: %w", err)
	}
	d := txn.New(numItems)
	for i, row := range rows {
		t := make(txn.Transaction, 0, len(row))
		for _, v := range row {
			if v < 0 || v >= int64(numItems) {
				return nil, fmt.Errorf("row %d: item %d outside universe [0,%d)", i, v, numItems)
			}
			t = append(t, txn.Item(v))
		}
		d.Txns = append(d.Txns, t.Normalize())
	}
	return d, nil
}

// sameTxns reports whether two batches hold the same transactions, telling
// a nil transaction from an empty one (they encode differently).
func sameTxns(a, b *txn.Dataset) bool {
	if a.NumItems != b.NumItems || len(a.Txns) != len(b.Txns) || (a.Txns == nil) != (b.Txns == nil) {
		return false
	}
	for i := range a.Txns {
		if (a.Txns[i] == nil) != (b.Txns[i] == nil) || len(a.Txns[i]) != len(b.Txns[i]) {
			return false
		}
		for j := range a.Txns[i] {
			if a.Txns[i][j] != b.Txns[i][j] {
				return false
			}
		}
	}
	return true
}

var txnRowSeeds = []string{
	`[[0,3,7],[1],[]]`, `[]`, `null`, ` null `, `[null]`, `[[null]]`, `[[null,2,null]]`,
	`[[1,1,1,0]]`, `[[9,8,7,6,5,4,3,2,1,0]]`,
	// Integer tokens only: ParseInt rejects what a float parser would take.
	`[[1.0]]`, `[[1e2]]`, `[[-0]]`, `[[01]]`, `[[1.]]`, `[[-]]`, `[[+1]]`, `[[1e400]]`,
	`[[9223372036854775807]]`, `[[9223372036854775808]]`, `[[-9223372036854775809]]`,
	`[[4294967296]]`, `[[2147483648]]`, `[[-1]]`, `[[10]]`,
	// Wrong kinds, and their precedence over a range error.
	`[["1"]]`, `[[true]]`, `[[[1]]]`, `[[{}]]`, `[1]`, `[{"a":1}]`, `["a"]`, `{}`, `1`, `"x"`, `true`,
	`[[99],[1.5]]`, `[[99],["a"]]`, `[[1.5],[99]]`, `[[99],[1],]`,
	// Syntax: trailing commas and bytes, deep nesting, whitespace.
	`[[1,]]`, `[[1],]`, `[[1]]x`, `[[1]] []`, `[[1]`, `[[1`, ``, ` `, `[[1]]` + "\x00",
	"[[" + strings.Repeat("[", 40) + strings.Repeat("]", 40) + "]]",
	" \t\n\r[ [ 1 ,\n2 ] ,\r[\t] , null ] \n",
}

// FuzzDecodeTxnRows is the differential fuzz of the transaction row
// scanner against the encoding/json decode it replaced: the same
// accept/reject decision and the same transactions.
func FuzzDecodeTxnRows(f *testing.F) {
	for _, seed := range txnRowSeeds {
		f.Add(seed, uint16(10))
	}
	f.Add(`[[2147483647,0]]`, uint16(1))
	f.Fuzz(func(t *testing.T, in string, n uint16) {
		numItems := int(n) + 1
		got, err := decodeTxnRows(numItems, []byte(in))
		want, werr := oracleDecodeTxnRows(numItems, json.RawMessage(in))
		if (err == nil) != (werr == nil) {
			t.Fatalf("decodeTxnRows(%d, %q): err %v, oracle err %v", numItems, in, err, werr)
		}
		if err == nil && !sameTxns(got, want) {
			t.Fatalf("decodeTxnRows(%d, %q) = %v, oracle %v", numItems, in, got.Txns, want.Txns)
		}
	})
}

// TestDecodeTxnRowsNestingLimit pins encoding/json's nesting limit of
// 10000, counted from the batch array, on both sides of the limit.
func TestDecodeTxnRowsNestingLimit(t *testing.T) {
	for _, depth := range []int{9998, 9999} {
		in := "[[" + strings.Repeat("[", depth) + strings.Repeat("]", depth) + "]]"
		_, err := decodeTxnRows(10, []byte(in))
		_, werr := oracleDecodeTxnRows(10, json.RawMessage(in))
		if err == nil || werr == nil {
			t.Fatalf("nesting %d: a nested item must reject: err %v, oracle err %v", depth+2, err, werr)
		}
		// Both reject; the syntax check must agree on which kind of error.
		if got, want := strings.Contains(err.Error(), "max depth"), strings.Contains(werr.Error(), "max depth"); got != want {
			t.Fatalf("nesting %d: err %v, oracle err %v", depth+2, err, werr)
		}
	}
}

// TestDecodeTxnRowsExactStorage pins the storage contract of decoded
// batches: every transaction is capped at its length, so appending to one
// can never write into its neighbour in the shared block.
func TestDecodeTxnRowsExactStorage(t *testing.T) {
	d, err := decodeTxnRows(10, []byte(`[[3,1,3],[],[2,2],null,[0]]`))
	if err != nil {
		t.Fatal(err)
	}
	want := []txn.Transaction{{1, 3}, {}, {2}, {}, {0}}
	for i, tx := range d.Txns {
		if cap(tx) != len(tx) || fmt.Sprint(tx) != fmt.Sprint(want[i]) || tx == nil {
			t.Fatalf("txn %d = %v (cap %d), want %v at exact capacity", i, tx, cap(tx), want[i])
		}
	}
}

// TestDecodeTxnRowsConcurrent decodes batches from several goroutines,
// which share the pooled scratch between calls: every result must equal
// the oracle's (run with -race).
func TestDecodeTxnRowsConcurrent(t *testing.T) {
	var raws []string
	for b := 0; b < 8; b++ {
		var rows []string
		for i := 0; i < 5+b*9; i++ {
			rows = append(rows, fmt.Sprintf("[%d,%d,%d]", (i*b)%10, i%10, (b+3)%10))
		}
		raws = append(raws, "["+strings.Join(rows, ",")+"]")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				raw := raws[(g+k)%len(raws)]
				got, err := decodeTxnRows(10, []byte(raw))
				want, werr := oracleDecodeTxnRows(10, json.RawMessage(raw))
				if err != nil || werr != nil || !sameTxns(got, want) {
					t.Errorf("goroutine %d: %s: %v %v", g, raw, err, werr)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// marshalWALRecord is the record the WAL held before records were framed
// from the request bytes: json.Marshal of the feed's two fields.
type marshalWALRecord struct {
	Epoch *int64          `json:"epoch,omitempty"`
	Rows  json.RawMessage `json:"rows"`
}

// appendWALRecord frames one feed as the text record logs held before
// batches were logged decoded: {"epoch":N,"rows":<rows>} around the rows
// verbatim from the request.
func appendWALRecord(buf []byte, epoch *int64, rows []byte) []byte {
	if epoch != nil {
		buf = append(buf, walEpochKey...)
		buf = strconv.AppendInt(buf, *epoch, 10)
		buf = append(buf, ',')
	} else {
		buf = append(buf, '{')
	}
	buf = append(buf, walRowsKey...)
	if len(rows) == 0 {
		buf = append(buf, "null"...)
	}
	buf = append(buf, rows...)
	return append(buf, '}')
}

// TestWALRecordFraming pins the record envelope: a framed record parses
// back to its epoch and verbatim rows, the json.Marshal records of older logs
// frame to the same envelope, and a record in any other spelling is
// malformed.
func TestWALRecordFraming(t *testing.T) {
	i64 := func(v int64) *int64 { return &v }
	for _, c := range []struct {
		epoch *int64
		rows  string
	}{
		{nil, `[[1,2]]`},
		{i64(0), `[[1,2]]`},
		{i64(-7), `[ {"x": 1, "c": "<a&b>"} ]`},
		{i64(math.MaxInt64), "[\n[3]\n]"},
		{i64(math.MinInt64), `null`},
		{nil, `[{"k}":"}"}]`},
	} {
		rec := appendWALRecord(nil, c.epoch, []byte(c.rows))
		epoch, rows, err := parseWALRecord(rec)
		if err != nil {
			t.Fatalf("%s: %v", rec, err)
		}
		if (epoch == nil) != (c.epoch == nil) || epoch != nil && *epoch != *c.epoch || string(rows) != c.rows {
			t.Fatalf("%s: parsed epoch %v rows %s", rec, epoch, rows)
		}
		// Older logs hold the same envelope around compacted rows.
		old, err := json.Marshal(marshalWALRecord{Epoch: c.epoch, Rows: json.RawMessage(c.rows)})
		if err != nil {
			t.Fatal(err)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, []byte(c.rows)); err != nil {
			t.Fatal(err)
		}
		if want := appendWALRecord(nil, c.epoch, compact.Bytes()); !bytes.Equal(old, want) && !strings.Contains(c.rows, "<") {
			t.Fatalf("marshalled record %s, framed %s", old, want)
		}
		epoch, rows, err = parseWALRecord(old)
		if err != nil || (epoch == nil) != (c.epoch == nil) || epoch != nil && *epoch != *c.epoch {
			t.Fatalf("marshalled record %s: epoch %v err %v", old, epoch, err)
		}
		var a, b any
		if json.Unmarshal(rows, &a) != nil || json.Unmarshal([]byte(c.rows), &b) != nil || fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("marshalled record %s: rows %s do not decode as %s", old, rows, c.rows)
		}
	}
	if rec := appendWALRecord(nil, nil, nil); string(rec) != `{"rows":null}` {
		t.Fatalf("framing absent rows: %s, want json.Marshal's null", rec)
	}
	for _, bad := range []string{
		``, `{}`, `{"rows":}`, `{"rows":[1]`, `{ "rows":[1]}`, `{"rows":[1]} `, `{"Rows":[1]}`,
		`{"epoch":1}`, `{"epoch":+1,"rows":[1]}`, `{"epoch":01,"rows":[1]}`, `{"epoch":-0,"rows":[1]}`,
		`{"epoch": 1,"rows":[1]}`, `{"epoch":1.5,"rows":[1]}`, `{"epoch":null,"rows":[1]}`,
		`{"epoch":99999999999999999999,"rows":[1]}`, `{"epoch":1,"rows":[1]`,
	} {
		if _, _, err := parseWALRecord([]byte(bad)); err == nil {
			t.Errorf("malformed record %q parsed", bad)
		}
	}
}

// BenchmarkDecodeTxnRows decodes one 64-row lits batch with the scanner and
// with the encoding/json decode it replaced.
func BenchmarkDecodeTxnRows(b *testing.B) {
	var sb strings.Builder
	sb.WriteByte('[')
	for i := 0; i < 64; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "[%d,%d,%d,%d,%d,%d,%d,%d]", i%500, (i*7)%500, (i*13)%500, 3, 91, (i*31)%500, 250, 499)
	}
	sb.WriteByte(']')
	raw := []byte(sb.String())
	b.Run("scanner", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeTxnRows(500, raw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := oracleDecodeTxnRows(500, raw); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestFeedStatusFollowsOracle sends every transaction-row seed as the rows
// of a lits feed and requires the status the encoding/json decode implied:
// 400 for a body that is not JSON, for rows the oracle rejects and for an
// empty batch, 200 otherwise.
func TestFeedStatusFollowsOracle(t *testing.T) {
	ts := httptest.NewServer(NewRegistry().Handler())
	defer ts.Close()
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	create := `{"name": "s", "model": "lits", "num_items": 10, "min_support": 0.2, "reference": [[0,1],[0,1],[2],[0],[1]]}`
	if code := post("/v1/sessions", create); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	for _, seed := range txnRowSeeds {
		body := `{"rows": ` + seed + `}`
		want := http.StatusOK
		if !json.Valid([]byte(body)) {
			want = http.StatusBadRequest
		} else if d, err := oracleDecodeTxnRows(10, json.RawMessage(seed)); err != nil || len(d.Txns) == 0 {
			want = http.StatusBadRequest
		}
		if code := post("/v1/sessions/s/batches", body); code != want {
			t.Errorf("rows %q: status %d, want %d", seed, code, want)
		}
	}
}
