package txn

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// SourceBatchRows is the number of transactions per batch a Source emits.
const SourceBatchRows = 4096

// Slice returns the sub-dataset of transactions [lo, hi), sharing
// transaction storage with d.
func (d *Dataset) Slice(lo, hi int) *Dataset {
	return &Dataset{NumItems: d.NumItems, Txns: d.Txns[lo:hi:hi]}
}

// Source is an incremental decoder of the line-oriented transaction format
// produced by Write: the universe-size header is read on the first call to
// Next, then each call yields a batch of up to SourceBatchRows validated
// transactions, so decoding runs in bounded memory with the 1-based line
// number preserved in errors. A Source is not safe for concurrent use.
type Source struct {
	sc       *bufio.Scanner
	numItems int
	line     int // 1-based line of the next record; 0 before the header
	err      error
}

// NewSource returns a streaming decoder of transaction data.
func NewSource(r io.Reader) *Source {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	return &Source{sc: sc}
}

// header reads the universe-size line.
func (src *Source) header() error {
	if !src.sc.Scan() {
		if err := src.sc.Err(); err != nil {
			return err
		}
		return errors.New("txn: empty input")
	}
	numItems, err := strconv.Atoi(src.sc.Text())
	if err != nil {
		return fmt.Errorf("txn: parsing universe size: %w", err)
	}
	// A negative universe would slip through Validate on an empty dataset
	// and panic later in counter allocations; one past the Item range would
	// wrap ids into the universe.
	if err := CheckUniverse(numItems); err != nil {
		return err
	}
	src.numItems = numItems
	src.line = 2
	return nil
}

// NumItems returns the universe size, or -1 before the header has been read
// by the first call to Next.
func (src *Source) NumItems() int {
	if src.line == 0 {
		return -1
	}
	return src.numItems
}

// Next returns the next batch of up to SourceBatchRows transactions, io.EOF
// after the last, or the first decode error. A decode error is terminal and
// discards the partially decoded batch.
func (src *Source) Next(ctx context.Context) (*Dataset, error) {
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
	batch := New(src.numItems)
	for len(batch.Txns) < SourceBatchRows {
		if !src.sc.Scan() {
			if err := src.sc.Err(); err != nil {
				src.err = err
				return nil, err
			}
			src.err = io.EOF
			break
		}
		text := src.sc.Text()
		if text == "" {
			batch.Txns = append(batch.Txns, Transaction{})
			src.line++
			continue
		}
		var t Transaction
		start := 0
		for i := 0; i <= len(text); i++ {
			if i == len(text) || text[i] == ' ' {
				if i > start {
					v, err := strconv.Atoi(text[start:i])
					if err != nil {
						src.err = fmt.Errorf("txn: line %d: %w", src.line, err)
						return nil, src.err
					}
					// Range-check before the Item conversion: a value past
					// int32 would otherwise wrap silently into the universe.
					if v < 0 || v >= src.numItems {
						src.err = fmt.Errorf("txn: line %d: item %d outside universe [0,%d)", src.line, v, src.numItems)
						return nil, src.err
					}
					t = append(t, Item(v))
				}
				start = i + 1
			}
		}
		batch.Txns = append(batch.Txns, t.Normalize())
		src.line++
	}
	if len(batch.Txns) == 0 {
		return nil, src.err
	}
	return batch, nil
}
