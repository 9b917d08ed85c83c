package dataset_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"focus/internal/dataset"
)

// This file keeps the encoding/json row codec the scanner replaced, as the
// oracle of the differential tests: the scanner must accept exactly what
// it accepted and produce bit-identical tuples, and the row encoder must
// write exactly its bytes.

// oracleDecodeRow is the map-based row decode: the row into
// map[string]json.RawMessage, then each attribute's raw value into a
// float64 or a value name.
func oracleDecodeRow(s *dataset.Schema, data []byte) (dataset.Tuple, error) {
	t := make(dataset.Tuple, len(s.Attrs))
	var row map[string]json.RawMessage
	if err := json.Unmarshal(data, &row); err != nil {
		return nil, err
	}
	for j := range s.Attrs {
		a := &s.Attrs[j]
		raw, ok := row[a.Name]
		if !ok {
			return nil, fmt.Errorf("missing attribute %q", a.Name)
		}
		if a.Kind == dataset.Categorical {
			var name string
			if err := json.Unmarshal(raw, &name); err != nil {
				return nil, fmt.Errorf("attribute %q: %w", a.Name, err)
			}
			v := -1
			for k, val := range a.Values {
				if val == name {
					v = k
				}
			}
			if v < 0 {
				return nil, fmt.Errorf("unknown value %q for attribute %q", name, a.Name)
			}
			t[j] = float64(v)
			continue
		}
		var v float64
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, fmt.Errorf("attribute %q: %w", a.Name, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("attribute %q: value is not finite", a.Name)
		}
		if !a.Contains(v) {
			return nil, fmt.Errorf("attribute %q: value %v outside domain", a.Name, v)
		}
		t[j] = v
	}
	if len(row) != len(s.Attrs) {
		for name := range row {
			if s.AttrIndex(name) < 0 {
				return nil, fmt.Errorf("unknown attribute %q", name)
			}
		}
	}
	return t, nil
}

// oracleDecodeRows is the batch decode: the array into []json.RawMessage,
// then each element through oracleDecodeRow.
func oracleDecodeRows(s *dataset.Schema, raw []byte) (*dataset.Dataset, error) {
	var rows []json.RawMessage
	if err := json.Unmarshal(raw, &rows); err != nil {
		return nil, fmt.Errorf("rows must be an array of objects: %w", err)
	}
	d := dataset.New(s)
	for i, r := range rows {
		t, err := oracleDecodeRow(s, r)
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		d.Tuples = append(d.Tuples, t)
	}
	return d, nil
}

// oracleWriteJSONL is the row encoder that quoted every name per tuple.
func oracleWriteJSONL(d *dataset.Dataset, w io.Writer) error {
	bw := bufio.NewWriter(w)
	var buf []byte
	for i, t := range d.Tuples {
		buf = buf[:0]
		buf = append(buf, '{')
		for j, v := range t {
			a := &d.Schema.Attrs[j]
			if j > 0 {
				buf = append(buf, ',')
			}
			name, err := json.Marshal(a.Name)
			if err != nil {
				return err
			}
			buf = append(buf, name...)
			buf = append(buf, ':')
			if a.Kind == dataset.Categorical {
				iv := int(v)
				if iv < 0 || iv >= len(a.Values) {
					return fmt.Errorf("dataset: tuple %d: categorical value %v outside domain of %q", i, v, a.Name)
				}
				val, err := json.Marshal(a.Values[iv])
				if err != nil {
					return err
				}
				buf = append(buf, val...)
			} else {
				buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
			}
		}
		buf = append(buf, '}', '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// quirkSchema exercises the lookups a map-based decode resolved by name: a
// repeated attribute name (one key sets both), and categorical values that
// are empty, escaped or non-ASCII.
func quirkSchema() *dataset.Schema {
	return dataset.NewSchema(
		dataset.Attribute{Name: "x", Kind: dataset.Numeric, Min: -5, Max: 5},
		dataset.Attribute{Name: "c", Kind: dataset.Categorical, Values: []string{"", "é", "a\"b", "<&>"}},
		dataset.Attribute{Name: "x", Kind: dataset.Numeric, Min: -5, Max: 5},
	)
}

// sameTuples reports whether two decoded tuple lists hold bit-identical
// values (so -0 and +0 differ).
func sameTuples(a, b []dataset.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// tupleRowSeeds are the quirks of the map-based decode, as batches.
var tupleRowSeeds = []string{
	`[{"x":1.5,"color":"red","class":"A"},{"x":9,"color":"green","class":"B"}]`,
	`[]`, `null`, ` null `, `[null]`, `[1]`, `["a"]`, `[[]]`, `{}`, `"rows"`, `true`, ``, ` `,
	// Duplicate keys resolve last-wins; an overridden value is only syntax
	// checked, an overridden bad nesting still rejects.
	`[{"x":1,"x":2,"color":"red","class":"A"}]`,
	`[{"x":"bad","x":2,"color":"red","class":"A"}]`,
	`[{"x":1e400,"color":"red","class":"A","x":3}]`,
	`[{"x":[1,{"a":[]}],"x":2,"color":"red","class":"A"}]`,
	`[{"x":[1,},"x":2,"color":"red","class":"A"}]`,
	`[{"x":1,"color":"blue","color":"red","class":"A"}]`,
	// null values, a null row.
	`[{"x":null,"color":"red","class":"A"}]`,
	`[{"x":1,"color":null,"class":"A"}]`,
	`[{"x":null,"c":null}]`,
	`[{"x":1,"color":"red","class":"A"},null]`,
	// Escaped and invalid-UTF-8 keys and values.
	`[{"\u0078":1,"col\u006fr":"r\u0065d","class":"A"}]`,
	`[{"x\u0000":1,"color":"red","class":"A"}]`,
	"[{\"x\":1,\"color\":\"red\",\"class\":\"A\",\"\xff\":1}]",
	"[{\"x\":1,\"c\":\"\xc3\xa9\"}]",
	`[{"x":1,"c":"é"}]`,
	`[{"x":1,"c":"a\"b"}]`,
	`[{"x":1,"c":"<&>"}]`,
	"[{\"x\":1,\"c\":\"\xe9\"}]",
	`[{"x":1,"c":"\ud800"}]`,
	`[{"x":1,"c":"\x"}]`,
	`[{"x":1,"c":"` + "\t" + `"}]`,
	// Number edge cases.
	`[{"x":-0,"color":"red","class":"A"}]`,
	`[{"x":-0.0e5,"c":""}]`,
	`[{"x":01,"color":"red","class":"A"}]`,
	`[{"x":1.,"color":"red","class":"A"}]`,
	`[{"x":.5,"color":"red","class":"A"}]`,
	`[{"x":1e,"color":"red","class":"A"}]`,
	`[{"x":-,"color":"red","class":"A"}]`,
	`[{"x":+1,"color":"red","class":"A"}]`,
	`[{"x":1E+0,"color":"red","class":"A"}]`,
	`[{"x":4.9999999999999999999,"c":""}]`,
	`[{"x":1e-400,"color":"red","class":"A"}]`,
	`[{"x":0.30000000000000004,"color":"red","class":"A"}]`,
	`[{"x":11,"color":"red","class":"A"}]`,
	// Missing and unknown attributes.
	`[{"x":1,"color":"red"}]`,
	`[{"x":1,"color":"red","class":"A","y":2}]`,
	`[{"x":1,"c":"","y":2}]`,
	`[{"x":1,"c":"","y":2,"z":3}]`,
	`[{"x":1,"c":"","y":2,"y":3}]`,
	`[{"y":1,"color":"red"}]`,
	`[{"":1,"x":1,"color":"red","class":"A"}]`,
	`[{}]`,
	// Trailing commas and bytes, deep nesting, whitespace everywhere.
	`[{"x":1,"color":"red","class":"A"},]`,
	`[{"x":1,"color":"red","class":"A",}]`,
	`[{"x":1,"color":"red","class":"A"}]x`,
	`[{"x":1,"color":"red","class":"A"}] []`,
	`[{"x":1,"color":"red","class":"A"}`,
	`[{"x":1,"color":"red","class":"A"}` + "\x00",
	"[{\"x\":" + strings.Repeat("[{\"a\":", 40) + "0" + strings.Repeat("}]", 40) + ",\"x\":1,\"color\":\"red\",\"class\":\"A\"}]",
	" \t\n\r[ \n{ \"x\" :\t1 ,\r\"color\" : \"red\" , \"class\":\"A\" }\n,\n{\"x\":2,\"color\":\"green\",\"class\":\"B\"} ] \n",
	"[{\"x\":1,\"color\":\"red\",\"class\":\"A\"} ]",
	`[{"x":tru,"color":"red","class":"A"}]`,
	`[{"x":true,"color":"red","class":"A"}]`,
	`[{"x":1,"color":false,"class":"A"}]`,
}

// FuzzDecodeTupleRows is the differential fuzz of the tuple row scanner
// against the encoding/json decode it replaced, on two schemas: the same
// accept/reject decision and bit-identical tuples, for a batch
// (DecodeRows) and for a single row (Decode).
func FuzzDecodeTupleRows(f *testing.F) {
	for _, seed := range tupleRowSeeds {
		f.Add(seed)
		if row, ok := strings.CutPrefix(seed, "["); ok {
			f.Add(strings.TrimSuffix(row, "]"))
		}
	}
	f.Fuzz(func(t *testing.T, in string) {
		for _, s := range []*dataset.Schema{fuzzSchema(), quirkSchema()} {
			td := dataset.NewTupleDecoder(s)
			got, err := td.DecodeRows([]byte(in))
			want, werr := oracleDecodeRows(s, []byte(in))
			if (err == nil) != (werr == nil) {
				t.Fatalf("DecodeRows(%q): err %v, oracle err %v", in, err, werr)
			}
			if err == nil && !sameTuples(got.Tuples, want.Tuples) {
				t.Fatalf("DecodeRows(%q) = %v, oracle %v", in, got.Tuples, want.Tuples)
			}
			row, err := td.Decode([]byte(in))
			wantRow, werr := oracleDecodeRow(s, []byte(in))
			if (err == nil) != (werr == nil) {
				t.Fatalf("Decode(%q): err %v, oracle err %v", in, err, werr)
			}
			if err == nil && !sameTuples([]dataset.Tuple{row}, []dataset.Tuple{wantRow}) {
				t.Fatalf("Decode(%q) = %v, oracle %v", in, row, wantRow)
			}
		}
	})
}

// TestDecodeTupleRowsNestingLimit pins encoding/json's nesting limit of
// 10000 arrays and objects, counted from the batch array, on both sides of
// the limit. (The fuzz seeds stay shallow so the fuzzer stays fast.)
func TestDecodeTupleRowsNestingLimit(t *testing.T) {
	s := fuzzSchema()
	td := dataset.NewTupleDecoder(s)
	for _, depth := range []int{9998, 9999} {
		// The nested value is overridden, so only the syntax check sees it.
		in := `[{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"x":1,"color":"red","class":"A"}]`
		_, err := td.DecodeRows([]byte(in))
		_, werr := oracleDecodeRows(s, []byte(in))
		if (err == nil) != (werr == nil) {
			t.Fatalf("nesting %d: err %v, oracle err %v", depth+2, err, werr)
		}
		if want := depth+2 <= 10000; (err == nil) != want {
			t.Fatalf("nesting %d: err %v", depth+2, err)
		}
	}
}

// jsonRows joins WriteJSONL's rows into one JSON array: the rows of a
// focusd batch.
func jsonRows(tb testing.TB, d *dataset.Dataset) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := d.WriteJSONL(&buf); err != nil {
		tb.Fatal(err)
	}
	return []byte("[" + strings.ReplaceAll(strings.TrimSuffix(buf.String(), "\n"), "\n", ",") + "]")
}

// TestRowEncoderBytes pins WriteJSONL to the bytes of the encoder that
// quoted every name per tuple — names and values that need escaping
// included — and checks that its rows, joined into one array, decode back
// bit-identically.
func TestRowEncoderBytes(t *testing.T) {
	s := dataset.NewSchema(
		dataset.Attribute{Name: `x"<&>` + " ", Kind: dataset.Numeric, Min: -10, Max: 10},
		dataset.Attribute{Name: "c\n\u2028", Kind: dataset.Categorical, Values: []string{"", "é", `a"b`, "<script>", "\x01"}},
	)
	d := dataset.New(s)
	for i := 0; i < 12; i++ {
		d.Tuples = append(d.Tuples, dataset.Tuple{float64(i)/3 - 2, float64(i % 5)})
	}
	d.Tuples = append(d.Tuples, dataset.Tuple{math.Copysign(0, -1), 0}, dataset.Tuple{5e-324, 4})
	for _, n := range []int{0, 1, len(d.Tuples)} {
		part := d.Slice(0, n)
		var got, want bytes.Buffer
		if err := part.WriteJSONL(&got); err != nil {
			t.Fatal(err)
		}
		if err := oracleWriteJSONL(part, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteJSONL, %d rows:\n got %s\nwant %s", n, got.Bytes(), want.Bytes())
		}
		back, err := dataset.NewTupleDecoder(s).DecodeRows(jsonRows(t, part))
		if err != nil {
			t.Fatalf("%d rows: decoding the encoded rows: %v", n, err)
		}
		if !sameTuples(back.Tuples, part.Tuples) {
			t.Fatalf("%d rows: decoded %v, want %v", n, back.Tuples, part.Tuples)
		}
	}
	bad := dataset.New(s)
	bad.Tuples = []dataset.Tuple{{0, 7}}
	err := bad.WriteJSONL(io.Discard)
	werr := oracleWriteJSONL(bad, io.Discard)
	if err == nil || werr == nil || err.Error() != werr.Error() {
		t.Fatalf("out-of-domain value: err %v, want %v", err, werr)
	}
}

// BenchmarkDecodeTupleRows decodes one 64-row batch of the focusd wire
// format with the scanner and with the encoding/json decode it replaced.
func BenchmarkDecodeTupleRows(b *testing.B) {
	s := fuzzSchema()
	d := dataset.New(s)
	for i := 0; i < 64; i++ {
		d.Tuples = append(d.Tuples, dataset.Tuple{float64(i) / 6.7, float64(i % 2), float64(i / 7 % 2)})
	}
	raw := jsonRows(b, d)
	td := dataset.NewTupleDecoder(s)
	b.Run("scanner", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := td.DecodeRows(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := oracleDecodeRows(s, raw); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestDecodeRowsConcurrent decodes batches from several goroutines through
// one decoder, which shares its pooled value scratch between calls: every
// result must equal the serial decode (run with -race).
func TestDecodeRowsConcurrent(t *testing.T) {
	s := fuzzSchema()
	td := dataset.NewTupleDecoder(s)
	var raws [][]byte
	var want []*dataset.Dataset
	for b := 0; b < 8; b++ {
		d := dataset.New(s)
		for i := 0; i < 10+b*7; i++ {
			d.Tuples = append(d.Tuples, dataset.Tuple{float64(i*b%10) / 3, float64(i % 2), float64(b % 2)})
		}
		raws, want = append(raws, jsonRows(t, d)), append(want, d)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				b := (g + k) % len(raws)
				got, err := td.DecodeRows(raws[b])
				if err != nil || !sameTuples(got.Tuples, want[b].Tuples) {
					t.Errorf("goroutine %d batch %d: %v", g, b, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
