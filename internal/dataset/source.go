package dataset

import (
	"bufio"
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
)

// SourceBatchRows is the number of rows per batch the streaming decoders
// emit. Decoders hold at most one batch of decoded rows plus the underlying
// bufio buffer, so memory stays bounded regardless of input size; re-batch
// with source.Chunked when a different batch granularity is needed.
const SourceBatchRows = 4096

// Slice returns the sub-dataset of rows [lo, hi), sharing tuple storage
// with d.
func (d *Dataset) Slice(lo, hi int) *Dataset {
	return &Dataset{Schema: d.Schema, Tuples: d.Tuples[lo:hi:hi]}
}

// CSVSource is an incremental decoder of the CSV format produced by
// WriteCSV: Next yields batches of up to SourceBatchRows validated tuples.
// The header row is read and checked against the schema on the first call.
// Every row is validated as it is decoded — finite values inside the
// attribute domains — so a malformed row at offset k fails after decoding
// ~k rows, with the 1-based CSV line number preserved in the error, instead
// of after buffering the whole input. A CSVSource is not safe for
// concurrent use.
type CSVSource struct {
	cr     *csv.Reader
	schema *Schema
	decode []map[string]float64 // per-attribute categorical decode tables
	line   int                  // 1-based line of the next record
	err    error                // sticky terminal state
}

// NewCSVSource returns a streaming decoder of CSV data on schema s.
func NewCSVSource(r io.Reader, s *Schema) *CSVSource {
	cr := csv.NewReader(bufio.NewReader(r))
	cr.ReuseRecord = true
	return &CSVSource{cr: cr, schema: s}
}

// header reads and checks the header row and builds the categorical decode
// tables.
func (src *CSVSource) header() error {
	header, err := src.cr.Read()
	if err != nil {
		return fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	s := src.schema
	if len(header) != len(s.Attrs) {
		return fmt.Errorf("dataset: CSV has %d columns, schema has %d", len(header), len(s.Attrs))
	}
	for i, name := range header {
		if name != s.Attrs[i].Name {
			return fmt.Errorf("dataset: CSV column %d is %q, schema expects %q", i, name, s.Attrs[i].Name)
		}
	}
	src.decode = make([]map[string]float64, len(s.Attrs))
	for i := range s.Attrs {
		if s.Attrs[i].Kind == Categorical {
			m := make(map[string]float64, len(s.Attrs[i].Values))
			for j, v := range s.Attrs[i].Values {
				m[v] = float64(j)
			}
			src.decode[i] = m
		}
	}
	src.line = 2
	return nil
}

// Next returns the next batch of up to SourceBatchRows tuples, io.EOF after
// the last, or the first decode error. A decode error is terminal and
// discards the partially decoded batch.
func (src *CSVSource) Next(ctx context.Context) (*Dataset, error) {
	if src.err != nil {
		return nil, src.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if src.line == 0 {
		if err := src.header(); err != nil {
			src.err = err
			return nil, err
		}
	}
	s := src.schema
	batch := New(s)
	batch.Tuples = make([]Tuple, 0, SourceBatchRows)
	// One value arena per batch: tuples are carved out of a single block
	// instead of allocated row by row. The arena travels with the batch (its
	// tuples reference it), so each Next gets a fresh one.
	width := len(s.Attrs)
	arena := make([]float64, SourceBatchRows*width)
	for len(batch.Tuples) < SourceBatchRows {
		rec, err := src.cr.Read()
		if err == io.EOF {
			src.err = io.EOF
			break
		}
		if err != nil {
			src.err = fmt.Errorf("dataset: reading CSV line %d: %w", src.line, err)
			return nil, src.err
		}
		t := Tuple(arena[:width:width])
		arena = arena[width:]
		for j, field := range rec {
			if m := src.decode[j]; m != nil {
				v, ok := m[field]
				if !ok {
					src.err = fmt.Errorf("dataset: line %d: unknown value %q for attribute %q", src.line, field, s.Attrs[j].Name)
					return nil, src.err
				}
				t[j] = v
				continue
			}
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				src.err = fmt.Errorf("dataset: line %d attribute %q: %w", src.line, s.Attrs[j].Name, err)
				return nil, src.err
			}
			// ParseFloat accepts "NaN" and "Inf"; a non-finite value would
			// poison every downstream count.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				src.err = fmt.Errorf("dataset: line %d attribute %q: value %q is not finite", src.line, s.Attrs[j].Name, field)
				return nil, src.err
			}
			if !s.Attrs[j].Contains(v) {
				src.err = fmt.Errorf("dataset: line %d attribute %q: value %v outside domain", src.line, s.Attrs[j].Name, v)
				return nil, src.err
			}
			t[j] = v
		}
		batch.Tuples = append(batch.Tuples, t)
		src.line++
	}
	if len(batch.Tuples) == 0 {
		return nil, src.err
	}
	return batch, nil
}

// JSONLSource is an incremental decoder of JSON Lines data: one JSON object
// per line mapping attribute names to values (numbers for numeric
// attributes, value names for categorical ones), as produced by WriteJSONL.
// Blank lines are skipped. Rows are validated as they are decoded, with the
// 1-based line number preserved in errors. A JSONLSource is not safe for
// concurrent use.
type JSONLSource struct {
	sc     *bufio.Scanner
	schema *Schema
	dec    *TupleDecoder
	spans  []valueSpan // per-row value scratch of dec
	line   int
	err    error
}

// NewJSONLSource returns a streaming decoder of JSON Lines data on schema s.
func NewJSONLSource(r io.Reader, s *Schema) *JSONLSource {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	return &JSONLSource{sc: sc, schema: s, dec: NewTupleDecoder(s), spans: make([]valueSpan, len(s.Attrs))}
}

// Next returns the next batch of up to SourceBatchRows tuples, io.EOF after
// the last, or the first decode error. A decode error is terminal and
// discards the partially decoded batch.
func (src *JSONLSource) Next(ctx context.Context) (*Dataset, error) {
	if src.err != nil {
		return nil, src.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	batch := New(src.schema)
	batch.Tuples = make([]Tuple, 0, SourceBatchRows)
	// Same per-batch tuple arena as CSVSource.Next.
	width := len(src.schema.Attrs)
	arena := make([]float64, SourceBatchRows*width)
	for len(batch.Tuples) < SourceBatchRows {
		if !src.sc.Scan() {
			if err := src.sc.Err(); err != nil {
				src.err = fmt.Errorf("dataset: reading JSONL line %d: %w", src.line+1, err)
				return nil, src.err
			}
			src.err = io.EOF
			break
		}
		src.line++
		text := src.sc.Bytes()
		if len(trimSpace(text)) == 0 {
			continue
		}
		t := Tuple(arena[:width:width])
		arena = arena[width:]
		if err := src.dec.decodeRow(text, t, src.spans); err != nil {
			src.err = fmt.Errorf("dataset: JSONL line %d: %w", src.line, err)
			return nil, src.err
		}
		batch.Tuples = append(batch.Tuples, t)
	}
	if len(batch.Tuples) == 0 {
		return nil, src.err
	}
	return batch, nil
}

// trimSpace trims ASCII whitespace without allocating.
func trimSpace(b []byte) []byte {
	lo, hi := 0, len(b)
	for lo < hi && (b[lo] == ' ' || b[lo] == '\t' || b[lo] == '\r' || b[lo] == '\n') {
		lo++
	}
	for lo < hi && (b[hi-1] == ' ' || b[hi-1] == '\t' || b[hi-1] == '\r' || b[hi-1] == '\n') {
		hi--
	}
	return b[lo:hi]
}
