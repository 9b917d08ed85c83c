package dataset_test

import (
	"bufio"
	"bytes"
	"reflect"
	"strings"
	"testing"

	"focus/internal/dataset"
)

// FuzzJSONLSource fuzzes the JSON Lines decoder against the same small
// fixed schema as FuzzReadCSV. The oracle: ReadJSONL never panics, accepts
// exactly what the encoding/json row decode accepted line by line, with
// bit-identical tuples; when it succeeds, the dataset satisfies Validate (no NaN/Inf, no out-of-domain
// values, no missing or extra attributes slip through) and survives a
// WriteJSONL/ReadJSONL round trip unchanged (numeric values are written
// with full precision, categorical values by name).
func FuzzJSONLSource(f *testing.F) {
	for _, seed := range []string{
		`{"x":1.5,"color":"red","class":"A"}` + "\n" + `{"x":9,"color":"green","class":"B"}` + "\n",
		"",
		"\n\n  \n",
		`{"x":1.5,"color":"red"}`,
		`{"x":1,"color":"red","class":"A","y":2}`,
		`{"x":"red","color":"red","class":"A"}`,
		`{"x":11,"color":"red","class":"A"}`,
		`{"x":-1,"color":"red","class":"A"}`,
		`{"x":1,"color":"blue","class":"A"}`,
		`{"x":1e309,"color":"red","class":"A"}`,
		`{"x":1,"x":2,"color":"red","class":"A"}`,
		`{"class":"B","color":"green","x":0.30000000000000004}`,
		`[1.5,"red","A"]`,
		`not json`,
	} {
		f.Add(seed)
	}
	// The row quirks of the differential scanner fuzz, one row per line.
	for _, seed := range tupleRowSeeds {
		row, _ := strings.CutPrefix(seed, "[")
		f.Add(strings.TrimSuffix(row, "]") + "\n" + `{"x":2,"color":"green","class":"B"}`)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s := fuzzSchema()
		d, err := dataset.ReadJSONL(strings.NewReader(in), s)
		want, werr := oracleReadJSONL(in, s)
		if (err == nil) != (werr == nil) {
			t.Fatalf("ReadJSONL err %v, oracle err %v\ninput: %q", err, werr, in)
		}
		if err != nil {
			return
		}
		if !sameTuples(d.Tuples, want) {
			t.Fatalf("ReadJSONL = %v, oracle %v\ninput: %q", d.Tuples, want, in)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("ReadJSONL accepted a dataset that fails Validate: %v\ninput: %q", err, in)
		}
		var buf bytes.Buffer
		if err := d.WriteJSONL(&buf); err != nil {
			t.Fatalf("WriteJSONL after successful ReadJSONL: %v", err)
		}
		d2, err := dataset.ReadJSONL(&buf, s)
		if err != nil {
			t.Fatalf("re-ReadJSONL after WriteJSONL: %v\ninput: %q", err, in)
		}
		if len(d.Tuples) != len(d2.Tuples) || (len(d.Tuples) > 0 && !reflect.DeepEqual(d.Tuples, d2.Tuples)) {
			t.Fatalf("JSONL round trip changed the dataset\ninput: %q", in)
		}
	})
}

// oracleReadJSONL reads JSON Lines as the encoding/json row decode did:
// one row per non-blank line.
func oracleReadJSONL(in string, s *dataset.Schema) ([]dataset.Tuple, error) {
	sc := bufio.NewScanner(strings.NewReader(in))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var out []dataset.Tuple
	for sc.Scan() {
		if strings.Trim(sc.Text(), " \t\r\n") == "" {
			continue
		}
		t, err := oracleDecodeRow(s, sc.Bytes())
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, sc.Err()
}
