package txn

import (
	"bytes"
	"slices"
	"testing"
)

// TestBinaryRowsRoundTrip encodes normalized transactions, empty ones and
// ids past one uvarint byte included, and requires them back exactly, in
// one block, re-encoding to the same bytes.
func TestBinaryRowsRoundTrip(t *testing.T) {
	d := New(1 << 20)
	d.Add(Transaction{0, 5, 127, 128, 1<<20 - 1}, Transaction{}, Transaction{3})
	enc := d.AppendBinaryRows([]byte("prefix"))[len("prefix"):]
	got, err := DecodeBinaryRows(d.NumItems, enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumItems != d.NumItems || len(got.Txns) != len(d.Txns) {
		t.Fatalf("decoded %d transactions over %d items", len(got.Txns), got.NumItems)
	}
	for i, tx := range got.Txns {
		if !slices.Equal(tx, d.Txns[i]) || cap(tx) != len(tx) {
			t.Fatalf("transaction %d: %v (cap %d), want %v", i, tx, cap(tx), d.Txns[i])
		}
	}
	if again := got.AppendBinaryRows(nil); !bytes.Equal(again, enc) {
		t.Fatalf("re-encoded %x, want %x", again, enc)
	}
	if _, err := DecodeBinaryRows(128, enc); err == nil {
		t.Fatal("ids outside the universe decoded")
	}
	for _, bad := range [][]byte{nil, {1}, {0, 0}, {0x80, 0}, {1, 2, 1, 1}, {1, 2, 2, 1}, enc[:len(enc)-1]} {
		if _, err := DecodeBinaryRows(10, bad); err == nil {
			t.Errorf("malformed batch %x decoded", bad)
		}
	}
}
