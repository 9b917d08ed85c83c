// Package source defines the streaming data-entry abstraction of the
// framework: a Source yields a dataset in successive batches instead of as
// one in-memory slurp, so ingestion runs in bounded memory and composes
// with the incremental windowed monitors in internal/stream (the paper's
// Section 5.2 monitoring regime) and the serving layer in internal/serve.
//
// Concrete sources are implemented next to their dataset substrates — the
// incremental CSV and JSONL decoders in internal/dataset, the transaction
// decoder in internal/txn — and any in-memory batch slice adapts through
// Slice. Chunked re-batches any source to a fixed row count, decoupling the
// decoder's read granularity from the monitor's batch granularity.
package source

import (
	"context"
	"errors"
	"fmt"
	"io"
)

// Source yields a dataset as successive batches of type D. Next returns the
// next batch, io.EOF after the final batch, or the first error encountered;
// after a non-nil error every subsequent call returns an error. Sources are
// not safe for concurrent use — fan out by pumping one source into a
// concurrency-safe monitor per consumer instead.
type Source[D any] interface {
	// Next returns the next batch. It honours ctx cancellation and returns
	// io.EOF when the source is exhausted.
	Next(ctx context.Context) (D, error)
}

// Func adapts a function to a Source.
type Func[D any] func(ctx context.Context) (D, error)

// Next calls f.
func (f Func[D]) Next(ctx context.Context) (D, error) { return f(ctx) }

// Slice returns a Source yielding the given batches in order, then io.EOF.
func Slice[D any](batches ...D) Source[D] {
	s := sliceSource[D]{batches: batches}
	return &s
}

type sliceSource[D any] struct{ batches []D }

func (s *sliceSource[D]) Next(ctx context.Context) (D, error) {
	var zero D
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	if len(s.batches) == 0 {
		return zero, io.EOF
	}
	d := s.batches[0]
	s.batches = s.batches[1:]
	return d, nil
}

// Sliceable constrains the batch types Chunked can split and join: a batch
// knows its row count, can be sliced by row range (sharing storage), and can
// be concatenated with another batch. Both dataset substrates
// (*dataset.Dataset, *txn.Dataset) satisfy it.
type Sliceable[D any] interface {
	Len() int
	Slice(lo, hi int) D
	Concat(o D) (D, error)
}

// Chunked re-batches src into batches of exactly size rows (the final batch
// may be smaller), regardless of the batch sizes src emits. A chunk that
// falls inside one source batch is emitted as a zero-copy slice; a chunk
// spanning batches copies its rows once (balanced pairwise Concat), so
// re-batching stays linear in the rows streamed.
func Chunked[D Sliceable[D]](src Source[D], size int) Source[D] {
	return &chunked[D]{src: src, size: size}
}

type chunked[D Sliceable[D]] struct {
	src   Source[D]
	size  int
	q     []D // buffered source batches; q[0] consumed from off
	off   int // rows of q[0] already emitted
	n     int // total buffered rows not yet emitted
	parts []D // chunk-assembly scratch, reused across calls
	err   error
}

func (c *chunked[D]) Next(ctx context.Context) (D, error) {
	var zero D
	if c.size < 1 {
		return zero, fmt.Errorf("source: chunk size %d < 1", c.size)
	}
	// Fill the buffer to one full chunk (or the end of the source).
	for c.n < c.size && c.err == nil {
		b, err := c.src.Next(ctx)
		if err != nil {
			// Context cancellation is the caller's transient condition, not
			// the source's terminal state: keep the buffer and let a retry
			// with a live context resume where it left off.
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return zero, err
			}
			c.err = err
			break
		}
		if b.Len() > 0 {
			c.q = append(c.q, b)
			c.n += b.Len()
		}
	}
	if c.n == 0 {
		return zero, c.err
	}
	if c.err != nil && c.err != io.EOF {
		// A decode error is terminal and discards the buffered rows, like
		// the decoders' own partial batches.
		c.q, c.off, c.n = nil, 0, 0
		return zero, c.err
	}
	want := c.size
	if c.n < want {
		want = c.n // trailing partial chunk ahead of the EOF
	}
	// Assemble want rows from the front of the queue.
	parts := c.parts[:0]
	for want > 0 {
		head := c.q[0]
		avail := head.Len() - c.off
		take := want
		if take > avail {
			take = avail
		}
		parts = append(parts, head.Slice(c.off, c.off+take))
		c.off += take
		c.n -= take
		want -= take
		if c.off == head.Len() {
			c.q = c.q[1:]
			c.off = 0
		}
	}
	out, err := Merge(parts, func(a, b D) (D, error) { return a.Concat(b) })
	// Keep the scratch but drop its batch references so emitted chunks are
	// the only thing keeping decoded rows alive.
	for i := range parts {
		parts[i] = zero
	}
	c.parts = parts[:0]
	if err != nil {
		// Incompatible batches (schema/universe mismatch) are terminal.
		c.err = err
		c.q, c.off, c.n = nil, 0, 0
		return zero, err
	}
	return out, nil
}

// Merge joins parts, in order, by balanced pairwise concat, copying each
// row O(log len(parts)) times; a single part is returned as-is
// (zero-copy). parts must not be empty, and Merge uses it as scratch.
func Merge[D any](parts []D, concat func(a, b D) (D, error)) (D, error) {
	for len(parts) > 1 {
		next := parts[:0]
		for i := 0; i < len(parts); i += 2 {
			if i+1 == len(parts) {
				next = append(next, parts[i])
				break
			}
			m, err := concat(parts[i], parts[i+1])
			if err != nil {
				var zero D
				return zero, err
			}
			next = append(next, m)
		}
		parts = next
	}
	return parts[0], nil
}
