package core

import (
	"fmt"
	"slices"

	"focus/internal/source"
)

// Window is the streaming half of a ModelClass, written once for every
// class. FOCUS compares two models through each GCR region's measure alone
// (Section 3), so a window's whole state is its live batches, oldest
// first, each batch's integer count summary, their sum and the row total.
// A class builds its windows with NewWindow from two hooks — a batch
// summary and an induce — and the window keeps the bookkeeping: a batch's
// summary adds into the sum as the batch enters and subtracts out of it
// as the batch leaves, exactly, so an advance never rescans a retained
// batch. Windows are not safe for concurrent use.
type Window[D, M any] struct {
	mc          ModelClass[D, M]
	summarize   func(d D, parallelism int) ([]int, error)
	induce      func(w *Window[D, M]) (M, error)
	parallelism int

	batches []D     // the live batches, oldest first
	counts  [][]int // counts[i] is batches[i]'s summary, shared with clones and never mutated
	sum     []int   // the sum of counts: nil until the first batch fixes its length, unless the class sizes it
	n       int     // rows in the window

	// tracker is class-owned state the batches enter and leave (the lits
	// WindowMiner). Only the window a class's NewWindow returns carries
	// one: a clone is a snapshot, mined once or only counted against.
	tracker batchTracker[D]
}

// batchTracker is class-owned incremental state that follows a window's
// batches.
type batchTracker[D any] interface {
	push(d D, parallelism int)
	pop(d D)
}

// NewWindow returns an empty window of class mc. summarize validates a
// batch and returns its count vector over the class's fixed cells (pass-1
// item counts, leaf-by-class cells, grid cells, ...): every batch of one
// window must yield a vector of one length and Concat with the others.
// induce induces the window's model from the window alone (its Counts and
// N), bit-identical to mc.Induce over Data. parallelism is the window's
// worker count for the class's own scans.
func NewWindow[D, M any](mc ModelClass[D, M], parallelism int, summarize func(d D, parallelism int) ([]int, error), induce func(w *Window[D, M]) (M, error)) *Window[D, M] {
	return &Window[D, M]{mc: mc, summarize: summarize, induce: induce, parallelism: parallelism}
}

// Add seals one batch into its summary and adds it to the window. A batch
// the summary refuses, or whose vector does not match the window's length,
// leaves the window untouched.
func (w *Window[D, M]) Add(d D, parallelism int) error {
	c, err := w.summarize(d, parallelism)
	if err != nil {
		return err
	}
	if w.sum == nil {
		w.sum = make([]int, len(c))
	} else if len(c) != len(w.sum) {
		return fmt.Errorf("core: batch universe %d != window universe %d", len(c), len(w.sum))
	}
	w.batches = append(w.batches, d)
	w.counts = append(w.counts, c)
	for i, v := range c {
		w.sum[i] += v
	}
	w.n += w.mc.Len(d)
	if w.tracker != nil {
		w.tracker.push(d, parallelism)
	}
	return nil
}

// RemoveFront removes the oldest batch, subtracting its summary.
func (w *Window[D, M]) RemoveFront() {
	d, c := w.batches[0], w.counts[0]
	// Clear the slots so the expired batch (and anything memoized on it)
	// is not kept reachable by the backing arrays.
	var zero D
	w.batches[0], w.counts[0] = zero, nil
	w.batches, w.counts = w.batches[1:], w.counts[1:]
	for i, v := range c {
		w.sum[i] -= v
	}
	w.n -= w.mc.Len(d)
	if w.tracker != nil {
		w.tracker.pop(d)
	}
}

// Batches returns the number of live batches.
func (w *Window[D, M]) Batches() int { return len(w.batches) }

// N returns the number of rows in the window.
func (w *Window[D, M]) N() int { return w.n }

// Counts returns the sum of the live batches' summaries. The slice belongs
// to the window and changes as it advances: read it, do not keep or
// modify it.
func (w *Window[D, M]) Counts() []int { return w.sum }

// Parts returns the live batches, oldest first, in a fresh slice.
func (w *Window[D, M]) Parts() []D { return slices.Clone(w.batches) }

// Data returns the window's rows as one dataset (for bootstrap
// qualification), joined by the class's Concat; it may share storage with
// the live batches, or be the only one. An empty window returns the zero
// D.
func (w *Window[D, M]) Data() D {
	if len(w.batches) == 0 {
		var zero D
		return zero
	}
	d, err := source.Merge(slices.Clone(w.batches), w.mc.Concat)
	if err != nil {
		// Every batch passed the class's summary, which refuses a batch
		// that does not concatenate with the window's.
		panic(fmt.Sprintf("core: window batches do not concatenate: %v", err))
	}
	return d
}

// Clone snapshots the window. The clone shares the immutable batches and
// their summaries, and carries no class-owned state.
func (w *Window[D, M]) Clone() *Window[D, M] {
	c := *w
	c.batches, c.counts, c.sum = slices.Clone(w.batches), slices.Clone(w.counts), slices.Clone(w.sum)
	c.tracker = nil
	return &c
}

// Induce induces the window's model through the class's induce hook —
// bit-identical to inducing it from Data.
func (w *Window[D, M]) Induce() (M, error) { return w.induce(w) }
