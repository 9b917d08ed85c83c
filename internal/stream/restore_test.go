package stream

import (
	"reflect"
	"slices"
	"testing"

	"focus/internal/core"
	"focus/internal/txn"
)

// TestMonitorRestoreEquivalence is the acceptance test of the durability
// contract at the monitor layer: for every window policy, export a
// monitor's state after k batches, reinstate it into a freshly
// constructed monitor, feed the remaining batches to both, and require
// every subsequent report — deviations, epochs, window accounting, and
// the bootstrap qualification with its full null distribution (same RNG
// stream) — to be bit-identical to the uninterrupted monitor's.
func TestMonitorRestoreEquivalence(t *testing.T) {
	const (
		numItems   = 25
		minSupport = 0.05
		n          = 8
	)
	batches := randTxnBatches(11, n, 120, numItems, 6)
	ref := concatTxns(numItems, randTxnBatches(12, 4, 120, numItems, 6), []int{0, 1, 2, 3})
	mc := core.Lits(minSupport)

	for _, pc := range policyCases() {
		t.Run(pc.name, func(t *testing.T) {
			opts := pc.opts
			opts.Parallelism = 1
			opts.Qualify = true
			opts.Replicates = 9
			opts.Seed = 42
			pinnedRef := ref
			if opts.PreviousWindow {
				pinnedRef = nil // also cover promotion from the first window
			}

			feed := func(m *Monitor[*txn.Dataset, *core.LitsModel], i int) *Report {
				t.Helper()
				d := concatTxns(numItems, batches, []int{i})
				rep, err := m.IngestEpoch(epochOf(i), d)
				if err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
				return rep
			}

			// The uninterrupted control run.
			control, err := New(mc, pinnedRef, opts)
			if err != nil {
				t.Fatal(err)
			}
			var want []*Report
			for i := 0; i < n; i++ {
				want = append(want, feed(control, i))
			}

			for k := 0; k <= n; k++ {
				donor, err := New(mc, pinnedRef, opts)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < k; i++ {
					feed(donor, i)
				}
				restored, err := New(mc, pinnedRef, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := restored.RestoreState(donor.ExportState()); err != nil {
					t.Fatalf("split %d: RestoreState: %v", k, err)
				}
				if got, w := restored.Epoch(), donor.Epoch(); got != w {
					t.Fatalf("split %d: restored epoch %d, want %d", k, got, w)
				}
				if got, w := restored.Reports(), donor.Reports(); got != w {
					t.Fatalf("split %d: restored seq %d, want %d", k, got, w)
				}
				if got, w := restored.WindowN(), donor.WindowN(); got != w {
					t.Fatalf("split %d: restored window N %d, want %d", k, got, w)
				}
				for i := k; i < n; i++ {
					got := feed(restored, i)
					if !reflect.DeepEqual(got, want[i]) {
						t.Fatalf("split %d, batch %d: restored report %+v, want %+v", k, i, got, want[i])
					}
				}
			}
		})
	}
}

// TestRestoreStateGuards pins the misuse errors: restoring into a used
// monitor, mismatched epochs/batches, and a promoted reference into a
// pinned monitor.
func TestRestoreStateGuards(t *testing.T) {
	const numItems = 10
	ref := concatTxns(numItems, randTxnBatches(1, 1, 50, numItems, 4), []int{0})
	batch := concatTxns(numItems, randTxnBatches(2, 1, 50, numItems, 4), []int{0})
	mc := core.Lits(0.1)

	used, err := New(mc, ref, Options{WindowBatches: 2, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := used.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	if err := used.RestoreState(MonitorState[*txn.Dataset]{}); err == nil {
		t.Fatal("RestoreState accepted a used monitor")
	}

	fresh, err := New(mc, ref, Options{WindowBatches: 2, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreState(MonitorState[*txn.Dataset]{Epochs: []int64{1}}); err == nil {
		t.Fatal("RestoreState accepted mismatched epochs/batches")
	}
	if err := fresh.RestoreState(MonitorState[*txn.Dataset]{RefPromoted: true, RefData: ref}); err == nil {
		t.Fatal("RestoreState accepted a promoted reference for a pinned monitor")
	}
}

// TestRestoreStateWindowPolicy restores, under every window policy, states
// whose window the policy can or cannot produce: the exported state of a
// real run, a window over its batch count (a tumbling window's count is
// not checked), a batch epoch above the state's, decreasing batch epochs,
// and a batch an epoch window has expired.
func TestRestoreStateWindowPolicy(t *testing.T) {
	const numItems = 10
	ref := concatTxns(numItems, randTxnBatches(1, 1, 50, numItems, 4), []int{0})
	batch := concatTxns(numItems, randTxnBatches(2, 1, 50, numItems, 4), []int{0})
	mc := core.Lits(0.1)
	state := func(epoch int64, epochs ...int64) MonitorState[*txn.Dataset] {
		st := MonitorState[*txn.Dataset]{Epoch: epoch, Seq: 1, Epochs: epochs}
		for range epochs {
			st.Batches = append(st.Batches, batch)
		}
		return st
	}
	cases := []struct {
		name string
		st   MonitorState[*txn.Dataset]
		// ok lists the policies that accept the state; nil: every policy.
		ok []string
	}{
		{"kept", state(5, 4, 5), nil},
		{"over-full", state(5, 5, 5, 5, 5), []string{"tumbling-pinned", "tumbling-prev", "epoch-pinned", "epoch-prev"}},
		{"epoch-above", state(5, 1, 6), []string{}},
		{"epochs-decrease", state(4, 4, 3), []string{}},
		{"expired", state(5, 3, 5), []string{"sliding-pinned", "sliding-prev", "tumbling-pinned", "tumbling-prev"}},
	}
	for _, pc := range policyCases() {
		opts := pc.opts
		opts.Parallelism = 1
		pinned := ref
		if opts.PreviousWindow {
			pinned = nil
		}
		t.Run(pc.name, func(t *testing.T) {
			donor, err := New(mc, pinned, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if _, err := donor.IngestEpoch(epochOf(i), batch); err != nil {
					t.Fatal(err)
				}
			}
			fresh, err := New(mc, pinned, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.RestoreState(donor.ExportState()); err != nil {
				t.Fatalf("exported state: %v", err)
			}
			for _, c := range cases {
				want := c.ok == nil || slices.Contains(c.ok, pc.name)
				fresh, err := New(mc, pinned, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.RestoreState(c.st); (err == nil) != want {
					t.Errorf("%s: RestoreState err %v, want accepted %v", c.name, err, want)
				}
			}
		})
	}
}
