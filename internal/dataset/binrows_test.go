package dataset

import (
	"bytes"
	"math"
	"testing"
)

// TestBinaryRowsRoundTrip encodes a batch with extreme values and requires
// every value back bit for bit, one arena for the tuples, and the same
// bytes on re-encoding.
func TestBinaryRowsRoundTrip(t *testing.T) {
	s := NewSchema(
		Attribute{Name: "x", Kind: Numeric, Min: -math.MaxFloat64, Max: math.MaxFloat64},
		Attribute{Name: "c", Kind: Categorical, Values: []string{"a", "b", "c"}},
	)
	d := FromTuples(s, []Tuple{
		{math.Copysign(0, -1), 2},
		{math.SmallestNonzeroFloat64, 0},
		{-math.MaxFloat64, 1},
		{0.1 + 0.2, 2},
	})
	enc := d.AppendBinaryRows([]byte("prefix"))[len("prefix"):]
	got, err := DecodeBinaryRows(s, enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tuples) != len(d.Tuples) {
		t.Fatalf("%d tuples, want %d", len(got.Tuples), len(d.Tuples))
	}
	for i, tu := range got.Tuples {
		for j, v := range tu {
			if math.Float64bits(v) != math.Float64bits(d.Tuples[i][j]) {
				t.Fatalf("tuple %d value %d: %v, want %v", i, j, v, d.Tuples[i][j])
			}
		}
		if cap(tu) != len(tu) {
			t.Fatalf("tuple %d has spare capacity %d", i, cap(tu))
		}
	}
	if again := got.AppendBinaryRows(nil); !bytes.Equal(again, enc) {
		t.Fatalf("re-encoded %x, want %x", again, enc)
	}
	if empty, err := DecodeBinaryRows(s, []byte{0}); err != nil || empty.Len() != 0 {
		t.Fatalf("empty batch: %v, %v", empty, err)
	}
	for _, bad := range [][]byte{nil, {1}, {0, 0}, {0x80, 0}, enc[:len(enc)-1], append(enc, 0)} {
		if _, err := DecodeBinaryRows(s, bad); err == nil {
			t.Errorf("malformed batch %x decoded", bad)
		}
	}
}
