package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file is the binary codec of transaction batches, the form focusd
// logs in its write-ahead log so that a restart replays decoded item ids
// instead of parsing JSON text again. A batch is its transaction count,
// then each transaction as its length and its item ids, all uvarints. The
// decoder admits only normalized transactions inside the universe (what
// the JSON row decoder produces), so a valid encoding decodes and
// re-encodes to the same bytes.

// AppendBinaryRows appends the binary form of d's transactions, which must
// be normalized, to buf.
func (d *Dataset) AppendBinaryRows(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(d.Txns)))
	for _, t := range d.Txns {
		buf = binary.AppendUvarint(buf, uint64(len(t)))
		for _, x := range t {
			buf = binary.AppendUvarint(buf, uint64(x))
		}
	}
	return buf
}

// DecodeBinaryRows decodes the batch AppendBinaryRows wrote over numItems
// items; b must hold exactly that batch. Every transaction must list
// strictly ascending ids inside [0, numItems). The transactions share one
// exactly sized block.
func DecodeBinaryRows(numItems int, b []byte) (*Dataset, error) {
	// The first pass checks the batch and sizes the block; the second
	// fills it.
	rows, rest, err := uvarint(b)
	if err != nil {
		return nil, err
	}
	// Every transaction takes at least its length byte.
	if rows > uint64(len(rest)) {
		return nil, fmt.Errorf("binary batch of %d transactions holds %d bytes", rows, len(rest))
	}
	body, total := rest, 0
	for row := 0; row < int(rows); row++ {
		var n uint64
		if n, rest, err = uvarint(rest); err != nil {
			return nil, fmt.Errorf("transaction %d: %w", row, err)
		}
		if n > uint64(len(rest)) {
			return nil, fmt.Errorf("transaction %d: %d items in %d bytes", row, n, len(rest))
		}
		prev := int64(-1)
		for j := 0; j < int(n); j++ {
			var x uint64
			if x, rest, err = uvarint(rest); err != nil {
				return nil, fmt.Errorf("transaction %d: %w", row, err)
			}
			if x >= uint64(numItems) {
				return nil, fmt.Errorf("transaction %d: item %d outside universe [0,%d)", row, x, numItems)
			}
			if int64(x) <= prev {
				return nil, fmt.Errorf("transaction %d: items not strictly ascending", row)
			}
			prev = int64(x)
		}
		total += int(n)
	}
	if len(rest) > 0 {
		return nil, fmt.Errorf("binary batch has %d trailing bytes", len(rest))
	}
	d := New(numItems)
	if rows == 0 {
		return d, nil
	}
	store := make([]Item, total)
	d.Txns = make([]Transaction, rows)
	lo := 0
	for i := range d.Txns {
		var n uint64
		n, body, _ = uvarint(body)
		hi := lo + int(n)
		for j := lo; j < hi; j++ {
			var x uint64
			x, body, _ = uvarint(body)
			store[j] = Item(x)
		}
		d.Txns[i] = store[lo:hi:hi]
		lo = hi
	}
	return d, nil
}

// uvarint reads one uvarint in the shortest form AppendUvarint writes and
// returns the bytes after it.
func uvarint(b []byte) (uint64, []byte, error) {
	v, k := binary.Uvarint(b)
	if k <= 0 || k > 1 && b[k-1] == 0 {
		return 0, nil, errors.New("malformed uvarint")
	}
	return v, b[k:], nil
}
