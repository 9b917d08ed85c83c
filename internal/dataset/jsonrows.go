package dataset

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"focus/internal/jsonscan"
)

// This file is the JSON row codec: the row objects of JSON Lines data and
// of the focusd tuple batches ({"x": 1.5, "class": "A"}), decoded by one
// pass of internal/jsonscan over the bytes and encoded with every name
// quoted once per call.
//
// The decoder's accept set and values are those of encoding/json
// unmarshalling a row into map[string]json.RawMessage and each attribute's
// raw value into a float64 or a string (the oracle of the differential
// fuzz FuzzDecodeTupleRows), so the row format is that decode's: a
// duplicate key resolves last-wins (an overridden value is only syntax
// checked), null is 0 for a numeric attribute and "" for a categorical
// one, a null row reads as an empty object, numbers convert with
// strconv.ParseFloat (so a range error such as 1e400 rejects the row), and
// a syntax error anywhere outranks a value error in the same input.

// TupleDecoder decodes JSON row objects into validated tuples on one
// schema, with the per-attribute lookup tables built once for row streams
// (JSONLSource, the focusd batch endpoints). A TupleDecoder is safe for
// concurrent use.
type TupleDecoder struct {
	schema *Schema
	decode []map[string]float64 // per-attribute categorical decode tables
	index  map[string]int       // attribute name -> first attribute of that name
	// same rings the attributes sharing a name: same[j] is the next
	// attribute with attribute j's name, back round to j. A key sets every
	// attribute of its ring, as a map lookup by name did.
	same  []int
	names int // distinct attribute names
}

// NewTupleDecoder builds a row decoder on schema s.
func NewTupleDecoder(s *Schema) *TupleDecoder {
	td := &TupleDecoder{
		schema: s,
		decode: make([]map[string]float64, len(s.Attrs)),
		index:  make(map[string]int, len(s.Attrs)),
		same:   make([]int, len(s.Attrs)),
	}
	last := make(map[string]int, len(s.Attrs))
	for i := range s.Attrs {
		a := &s.Attrs[i]
		if a.Kind == Categorical {
			m := make(map[string]float64, len(a.Values))
			for j, v := range a.Values {
				m[v] = float64(j)
			}
			td.decode[i] = m
		}
		td.same[i] = i
		if first, ok := td.index[a.Name]; ok {
			td.same[last[a.Name]], td.same[i] = i, first
		} else {
			td.index[a.Name] = i
			td.names++
		}
		last[a.Name] = i
	}
	return td
}

// valueSpan is the last value token a row held for one attribute.
type valueSpan struct {
	tok   []byte // nil: the attribute is absent
	plain bool   // a string token the scanner found free of escapes and non-ASCII bytes
}

// Decode decodes one JSON object mapping attribute names to values into a
// validated tuple: numeric attributes take finite JSON numbers inside
// their domain, categorical attributes take their value names as JSON
// strings. Every attribute of the schema must be present and no other keys
// are allowed.
func (td *TupleDecoder) Decode(data []byte) (Tuple, error) {
	t := make(Tuple, len(td.schema.Attrs))
	if err := td.decodeRow(data, t, make([]valueSpan, len(t))); err != nil {
		return nil, err
	}
	return t, nil
}

// decodeRow decodes one JSON text holding a row object into t, which must
// have one slot per schema attribute (row streams carve t out of a batch
// arena); spans is the caller's scratch of the same length.
func (td *TupleDecoder) decodeRow(data []byte, t Tuple, spans []valueSpan) error {
	sc := jsonscan.New(data)
	err := td.scanRow(&sc, 0, t, spans)
	if err == nil {
		err = sc.End()
	}
	if err != nil {
		if serr := jsonscan.Valid(data); serr != nil {
			return serr
		}
	}
	return err
}

// valuePool recycles the value scratch of DecodeRows, so a batch allocates
// only its exactly sized arena.
var valuePool = sync.Pool{New: func() any { return new([]float64) }}

// maxPooledValues bounds the scratch DecodeRows returns to the pool, so one
// huge batch does not pin its scratch for the process lifetime.
const maxPooledValues = 1 << 16

// DecodeRows decodes a JSON array of row objects (each as Decode reads
// one) into a dataset in one pass over raw. A top-level null is an empty
// batch. Row errors carry the 0-based row index; a syntax error anywhere
// in raw outranks them.
func (td *TupleDecoder) DecodeRows(raw []byte) (*Dataset, error) {
	vp := valuePool.Get().(*[]float64)
	d, vals, err := td.decodeRows(raw, (*vp)[:0])
	if cap(vals) <= maxPooledValues {
		*vp = vals[:0]
		valuePool.Put(vp)
	}
	if err != nil {
		if serr := jsonscan.Valid(raw); serr != nil {
			err = fmt.Errorf("rows must be an array of objects: %w", serr)
		}
		return nil, err
	}
	return d, nil
}

// decodeRows scans raw with vals as the value scratch and returns the
// (possibly grown) scratch for reuse.
func (td *TupleDecoder) decodeRows(raw []byte, vals []float64) (*Dataset, []float64, error) {
	d := New(td.schema)
	sc := jsonscan.New(raw)
	switch c := sc.Peek(); c {
	case 'n':
		if err := sc.Literal("null"); err != nil {
			return nil, vals, err
		}
		return d, vals, sc.End()
	case '[':
		sc.Consume('[')
	default:
		if err := sc.Skip(0); err != nil {
			return nil, vals, err
		}
		return nil, vals, fmt.Errorf("rows must be an array of objects, not %s", jsonscan.Kind(c))
	}
	width := len(td.schema.Attrs)
	spans := make([]valueSpan, width)
	n := 0
	if !sc.Consume(']') {
		for ; ; n++ {
			lo := len(vals)
			vals = append(vals, make([]float64, width)...)
			if err := td.scanRow(&sc, 1, Tuple(vals[lo:]), spans); err != nil {
				return nil, vals, fmt.Errorf("row %d: %w", n, err)
			}
			if sc.Consume(',') {
				continue
			}
			if sc.Consume(']') {
				n++
				break
			}
			return nil, vals, sc.Fail("after array element")
		}
	}
	if err := sc.End(); err != nil {
		return nil, vals, err
	}
	if n > 0 {
		arena := make([]float64, len(vals))
		copy(arena, vals)
		d.Tuples = make([]Tuple, n)
		for i := range d.Tuples {
			d.Tuples[i] = arena[i*width : (i+1)*width : (i+1)*width]
		}
	}
	return d, vals, nil
}

// scanRow scans one row value at sc — an object, or null read as an empty
// object — nested in depth arrays, and converts it into t.
func (td *TupleDecoder) scanRow(sc *jsonscan.Scanner, depth int, t Tuple, spans []valueSpan) error {
	clear(spans)
	attrs := td.schema.Attrs
	var first string            // the first key naming no attribute
	var unknown map[string]bool // the distinct keys naming no attribute
	switch c := sc.Peek(); c {
	case 'n':
		if err := sc.Literal("null"); err != nil {
			return err
		}
	case '{':
		sc.Consume('{')
		if sc.Consume('}') {
			break
		}
		for next := 0; ; {
			key, plain, err := sc.String()
			if err != nil {
				return err
			}
			if !sc.Consume(':') {
				return sc.Fail("after object key")
			}
			var name string
			j := -1
			switch {
			case !plain:
				name = jsonscan.Unquote(key)
				if i, ok := td.index[name]; ok {
					j = i
				}
			case next < len(attrs) && string(key[1:len(key)-1]) == attrs[next].Name:
				j = next
			default:
				if i, ok := td.index[string(key[1:len(key)-1])]; ok {
					j = i
				}
			}
			if j < 0 {
				if plain {
					name = string(key[1 : len(key)-1])
				}
				if unknown == nil {
					unknown, first = make(map[string]bool), name
				}
				unknown[name] = true
				if err := sc.Skip(depth + 1); err != nil {
					return err
				}
			} else {
				tok, plainVal, err := sc.Value(depth + 1)
				if err != nil {
					return err
				}
				for k := j; ; {
					spans[k] = valueSpan{tok: tok, plain: plainVal}
					if k = td.same[k]; k == j {
						break
					}
				}
				next = j + 1
			}
			if sc.Consume(',') {
				continue
			}
			if sc.Consume('}') {
				break
			}
			return sc.Fail("after object key:value pair")
		}
	default:
		if err := sc.Skip(depth); err != nil {
			return err
		}
		return fmt.Errorf("cannot decode %s as a row object", jsonscan.Kind(c))
	}
	if err := td.convert(spans, t); err != nil {
		return err
	}
	// Keys naming no attribute reject the row once every attribute is in
	// place, unless the distinct keys still number the attributes: with
	// repeated attribute names, a decode into a map keyed by name cannot
	// tell the two apart, and the row format is that decode's.
	if len(unknown) > 0 && td.names+len(unknown) != len(attrs) {
		return fmt.Errorf("unknown attribute %q", first)
	}
	return nil
}

// convert checks and converts each attribute's value token into t, in
// schema order.
func (td *TupleDecoder) convert(spans []valueSpan, t Tuple) error {
	for j := range td.schema.Attrs {
		a := &td.schema.Attrs[j]
		tok := spans[j].tok
		if tok == nil {
			return fmt.Errorf("missing attribute %q", a.Name)
		}
		if m := td.decode[j]; m != nil {
			var v float64
			var ok bool
			var name string
			switch {
			case tok[0] == '"' && spans[j].plain:
				v, ok = m[string(tok[1:len(tok)-1])]
				if !ok {
					name = string(tok[1 : len(tok)-1])
				}
			case tok[0] == '"':
				name = jsonscan.Unquote(tok)
				v, ok = m[name]
			case tok[0] == 'n':
				v, ok = m[""]
			default:
				return fmt.Errorf("attribute %q: cannot decode %s as a value name", a.Name, jsonscan.Kind(tok[0]))
			}
			if !ok {
				return fmt.Errorf("unknown value %q for attribute %q", name, a.Name)
			}
			t[j] = v
			continue
		}
		var v float64
		switch c := tok[0]; {
		case c == 'n':
		case c == '-' || c >= '0' && c <= '9':
			var err error
			if v, err = strconv.ParseFloat(string(tok), 64); err != nil {
				return fmt.Errorf("attribute %q: number %s does not fit a float64", a.Name, tok)
			}
		default:
			return fmt.Errorf("attribute %q: cannot decode %s as a number", a.Name, jsonscan.Kind(c))
		}
		// JSON numbers cannot encode NaN/Inf, but guard anyway so the
		// validated-output invariant never depends on the decoder.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("attribute %q: value is not finite", a.Name)
		}
		if !a.Contains(v) {
			return fmt.Errorf("attribute %q: value %v outside domain", a.Name, v)
		}
		t[j] = v
	}
	return nil
}

// rowEncoder renders tuples as JSON row objects with every attribute name
// and categorical value quoted once per encoder.
type rowEncoder struct {
	schema *Schema
	keys   [][]byte   // the quoted name and colon per attribute, comma-led after the first
	values [][][]byte // the quoted value names per categorical attribute
}

func newRowEncoder(s *Schema) *rowEncoder {
	e := &rowEncoder{schema: s, keys: make([][]byte, len(s.Attrs)), values: make([][][]byte, len(s.Attrs))}
	for j := range s.Attrs {
		a := &s.Attrs[j]
		if j > 0 {
			e.keys[j] = append(e.keys[j], ',')
		}
		e.keys[j] = append(appendQuoted(e.keys[j], a.Name), ':')
		if a.Kind == Categorical {
			e.values[j] = make([][]byte, len(a.Values))
			for k, v := range a.Values {
				e.values[j][k] = appendQuoted(nil, v)
			}
		}
	}
	return e
}

// appendQuoted appends s as encoding/json quotes a string.
func appendQuoted(buf []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(buf, q...)
}

// appendRow appends tuple i as one row object: attributes in schema order,
// categorical values by name, numeric values at full float64 precision.
func (e *rowEncoder) appendRow(buf []byte, i int, t Tuple) ([]byte, error) {
	buf = append(buf, '{')
	for j, v := range t {
		a := &e.schema.Attrs[j]
		buf = append(buf, e.keys[j]...)
		if a.Kind == Categorical {
			iv := int(v)
			if iv < 0 || iv >= len(a.Values) {
				return nil, fmt.Errorf("dataset: tuple %d: categorical value %v outside domain of %q", i, v, a.Name)
			}
			buf = append(buf, e.values[j][iv]...)
		} else {
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
	}
	return append(buf, '}'), nil
}

// WriteJSONL writes the dataset as JSON Lines in the format JSONLSource
// reads: one object per tuple with attributes in schema order, categorical
// values written by name and numeric values with full float64 precision.
func (d *Dataset) WriteJSONL(w io.Writer) error {
	e := newRowEncoder(d.Schema)
	bw := bufio.NewWriter(w)
	var buf []byte
	for i, t := range d.Tuples {
		var err error
		if buf, err = e.appendRow(buf[:0], i, t); err != nil {
			return err
		}
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}
