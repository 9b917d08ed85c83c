package dataset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// This file is the binary row codec of tuple batches, the form focusd logs
// in its write-ahead log so that a restart replays decoded values instead
// of parsing JSON text again. A batch is its row count as a uvarint
// followed by every value's float64 bits, row by row in schema order,
// little-endian, 8 bytes each; the schema fixes the row width. Values keep
// their exact bits, so a decoded batch is bit-identical to the one
// encoded, and a valid encoding decodes and re-encodes to the same bytes.

// AppendBinaryRows appends the binary form of d's tuples to buf.
func (d *Dataset) AppendBinaryRows(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(d.Tuples)))
	buf = slices.Grow(buf, 8*len(d.Tuples)*len(d.Schema.Attrs))
	for _, t := range d.Tuples {
		for _, v := range t {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf
}

// DecodeBinaryRows decodes the batch AppendBinaryRows wrote on schema s;
// b must hold exactly that batch. Every value is checked as the JSON row
// decoder checks it: finite and inside its attribute's domain, and a
// categorical value must be the exact bits of its code. The tuples share
// one exactly sized arena.
func DecodeBinaryRows(s *Schema, b []byte) (*Dataset, error) {
	n, k := binary.Uvarint(b)
	// A longer encoding than AppendUvarint writes (a trailing zero byte)
	// would not re-encode to the same bytes.
	if k <= 0 || k > 1 && b[k-1] == 0 {
		return nil, errors.New("malformed binary row count")
	}
	width := len(s.Attrs)
	body := b[k:]
	if n > 0 && (width == 0 || len(body)%(8*width) != 0 || uint64(len(body)/(8*width)) != n) {
		return nil, fmt.Errorf("binary batch of %d rows holds %d value bytes, want %d per row", n, len(body), 8*width)
	}
	if n == 0 && len(body) > 0 {
		return nil, fmt.Errorf("binary batch of 0 rows holds %d value bytes", len(body))
	}
	d := New(s)
	if n == 0 {
		return d, nil
	}
	arena := make([]float64, len(body)/8)
	for i := range arena {
		v := math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
		a := &s.Attrs[i%width]
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			return nil, fmt.Errorf("row %d: attribute %q: value is not finite", i/width, a.Name)
		case !a.Contains(v):
			return nil, fmt.Errorf("row %d: attribute %q: value %v outside domain", i/width, a.Name, v)
		case a.Kind == Categorical && math.Float64bits(v) != math.Float64bits(float64(int(v))):
			return nil, fmt.Errorf("row %d: attribute %q: code %v is not canonical", i/width, a.Name, v)
		}
		arena[i] = v
	}
	d.Tuples = make([]Tuple, n)
	for i := range d.Tuples {
		d.Tuples[i] = arena[i*width : (i+1)*width : (i+1)*width]
	}
	return d, nil
}
