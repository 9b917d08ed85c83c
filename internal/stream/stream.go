// Package stream implements incremental windowed deviation monitoring on
// top of the FOCUS framework: the paper's headline use case — computing
// delta(f,g) between yesterday's and today's snapshot to decide whether a
// change is interesting (Section 5.2) — run continuously over a stream of
// batches instead of as one-off batch diffs.
//
// The monitor is written once, generically, against the core.ModelClass
// abstraction: batches are sealed into mergeable count summaries by the
// class's Window (per-batch itemset support counts for lits-models,
// per-cell class counts over a pinned tree for dt-models, grid-cell counts
// for cluster-models), a window advance subtracts the expired batch's
// summary and adds the new one instead of rescanning retained batches, and
// every advance emits the deviation of the current window against a pinned
// reference model (or against the previous window), optionally
// bootstrap-qualified, invoking an alert callback when the deviation
// reaches a threshold. A new model class streams by implementing
// core.ModelClass alone — no change to this package.
//
// The determinism contract of the parallel pipeline extends to the
// incremental one: all summaries hold integer counts, integer sums are
// exact and order-free, and the model inductions (Apriori, grid
// clustering) and f/g reductions are pure functions of those counts over
// fixed region orders. A monitor's deviation is therefore bit-identical to
// rebuilding the window's model from its raw batches at every step, for
// every model class, every f/g combination, and every parallelism setting
// — the property the equivalence tests in this package pin down.
package stream

import (
	"errors"
	"fmt"
	"reflect"
	"sync"

	"focus/internal/core"
	"focus/internal/stats"
)

// Options configures a Monitor. It is the unified pipeline configuration;
// assemble it directly or through the core functional options.
type Options = core.Config

// Report is one emission of a Monitor.
type Report = core.Report

// withDefaults validates the window policy and fills monitor defaults.
func withDefaults(o Options) (Options, error) {
	if o.F == nil {
		o.F = core.AbsoluteDiff
	}
	if o.G == nil {
		o.G = core.Sum
	}
	if o.Replicates <= 0 {
		o.Replicates = stats.DefaultBootstrapReplicates
	}
	// Reject Config fields the monitor does not honour rather than
	// silently ignoring them: a report the user believes is focussed (or
	// extension-qualified) but is not would be a correctness trap.
	if o.FocusRegion != nil || o.FocusItemsets != nil {
		return o, errors.New("stream: focus restrictions are not supported by monitors")
	}
	if o.Extension {
		return o, errors.New("stream: Extension qualification is not supported by monitors")
	}
	if o.EpochWindow > 0 {
		if o.Tumbling {
			return o, errors.New("stream: epoch-based windows cannot tumble")
		}
		if o.WindowBatches != 0 {
			return o, errors.New("stream: WindowBatches and EpochWindow are mutually exclusive")
		}
	} else if o.WindowBatches < 1 {
		return o, errors.New("stream: WindowBatches must be >= 1 (or set EpochWindow > 0)")
	}
	return o, nil
}

// Monitor is an incremental windowed deviation monitor over batch datasets
// of D through models of M. Construct one with New.
//
// A Monitor is safe for concurrent use: intake is serialized by an internal
// mutex, so any number of producers (Pump goroutines, focusd handlers) can
// feed one monitor, each Ingest/IngestEpoch call observes a fully advanced
// window, and reports are emitted — and any alert callback invoked — in
// intake order. The alert callback runs synchronously inside that critical
// section and must not call back into the monitor.
type Monitor[D, M any] struct {
	mu   sync.Mutex
	opts Options
	mc   core.ModelClass[D, M]

	live core.Window[D, M] // guarded by mu
	ref  core.Window[D, M] // guarded by mu

	refModel    M    // guarded by mu
	hasRefModel bool // guarded by mu
	refPromoted bool // the reference was promoted from a window (PreviousWindow); guarded by mu
	liveModel   M    // guarded by mu
	liveModelOK bool // guarded by mu

	epochs  []int64 // one entry per live batch, oldest first; guarded by mu
	batches []D     // the live batches themselves, oldest first (for ExportState); guarded by mu
	epoch   int64   // guarded by mu
	seq     int     // guarded by mu
	last    *Report // guarded by mu
}

// New creates a monitor for the given model class. ref is the pinned
// reference dataset; it may be the zero value (nil) when
// Options.PreviousWindow is set, in which case the first complete window
// becomes the initial reference and emits no report.
func New[D, M any](mc core.ModelClass[D, M], ref D, opts Options) (*Monitor[D, M], error) {
	o, err := withDefaults(opts)
	if err != nil {
		return nil, err
	}
	live, err := mc.NewWindow(o.Parallelism)
	if err != nil {
		return nil, err
	}
	m := &Monitor[D, M]{opts: o, mc: mc, live: live}
	if !isNilRef(ref) {
		// The reference window is a clone of the (empty) live window so the
		// two share any sealed-summary bookkeeping (e.g. the lits intern
		// table).
		rw := live.Clone()
		if err := rw.Add(ref, o.Parallelism); err != nil {
			return nil, fmt.Errorf("stream: invalid reference: %w", err)
		}
		rm, err := rw.Induce()
		if err != nil {
			return nil, err
		}
		m.ref, m.refModel, m.hasRefModel = rw, rm, true
	} else if !o.PreviousWindow {
		return nil, fmt.Errorf("stream: %s monitor requires reference data unless PreviousWindow is set", mc.Name())
	}
	return m, nil
}

// isNilRef reports whether the reference value is absent (a nil pointer,
// interface, map or slice).
func isNilRef(v any) bool {
	if v == nil {
		return true
	}
	switch rv := reflect.ValueOf(v); rv.Kind() {
	case reflect.Ptr, reflect.Interface, reflect.Map, reflect.Slice, reflect.Chan, reflect.Func:
		return rv.IsNil()
	}
	return false
}

// Ingest adds one batch to the window under the next epoch (previous
// epoch + 1) and returns the emitted report, or nil when the window policy
// suppresses emission (a tumbling window that has not filled, or a
// PreviousWindow monitor still waiting for its first reference window).
// The monitor retains the batch; callers must not mutate it afterwards.
// Ingest is safe for concurrent callers; concurrent batches enter the
// window in lock-acquisition order.
func (m *Monitor[D, M]) Ingest(batch D) (*Report, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ingest(m.epoch+1, batch)
}

// IngestEpoch is Ingest with an explicit epoch, which must not decrease
// from one call to the next. Epochs drive expiry when Options.EpochWindow
// is set and are otherwise only recorded in reports.
func (m *Monitor[D, M]) IngestEpoch(epoch int64, batch D) (*Report, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ingest(epoch, batch)
}

// ingest is the intake path; callers hold m.mu.
//
//lint:holds mu
func (m *Monitor[D, M]) ingest(epoch int64, batch D) (*Report, error) {
	if epoch < m.epoch {
		return nil, fmt.Errorf("stream: epoch %d regresses below %d", epoch, m.epoch)
	}
	// A batch the window rejects leaves the monitor untouched, epoch
	// included. Errors after Add still keep the batch (see ROADMAP item 1).
	if err := m.live.Add(batch, m.opts.Parallelism); err != nil {
		return nil, err
	}
	m.epoch = epoch
	m.liveModelOK = false
	m.epochs = append(m.epochs, epoch)
	m.batches = append(m.batches, batch)

	// Advance the window: subtract expired batches, keep the new one.
	if m.opts.EpochWindow > 0 {
		for m.live.Batches() > 0 && m.epochs[0] <= epoch-m.opts.EpochWindow {
			m.expire()
		}
	} else if !m.opts.Tumbling {
		for m.live.Batches() > m.opts.WindowBatches {
			m.expire()
		}
	} else if m.live.Batches() < m.opts.WindowBatches {
		return nil, nil // tumbling window still filling
	}

	// A PreviousWindow monitor without reference data promotes its first
	// complete window to the initial reference.
	if m.opts.PreviousWindow && !m.hasRefModel {
		if err := m.snapshot(); err != nil {
			return nil, err
		}
		if m.opts.Tumbling {
			m.clear()
		}
		return nil, nil
	}

	cur, err := m.induceLive()
	if err != nil {
		return nil, err
	}
	regions, err := m.mc.MeasureGCRWindows(m.refModel, cur, m.ref, m.live)
	if err != nil {
		return nil, err
	}
	dev := core.Deviation1(regions, float64(m.ref.N()), float64(m.live.N()), m.opts.F, m.opts.G)
	rep := &Report{
		Seq:       m.seq,
		Epoch:     epoch,
		Batches:   m.live.Batches(),
		N:         m.live.N(),
		RefN:      m.ref.N(),
		Regions:   len(regions),
		Deviation: dev,
		Alert:     m.opts.Threshold > 0 && dev >= m.opts.Threshold,
	}
	if m.opts.Qualify {
		q, err := m.qualify(dev, m.opts.Seed+int64(m.seq))
		if err != nil {
			return nil, err
		}
		rep.Qual = q
	}
	if m.opts.PreviousWindow {
		if err := m.snapshot(); err != nil {
			return nil, err
		}
	}
	if m.opts.Tumbling {
		m.clear()
	}
	m.seq++
	m.last = rep
	if rep.Alert && m.opts.OnAlert != nil {
		m.opts.OnAlert(*rep)
	}
	return rep, nil
}

// expire removes the oldest batch from the live window; callers hold m.mu.
//
//lint:holds mu
func (m *Monitor[D, M]) expire() {
	m.live.RemoveFront()
	m.epochs = m.epochs[1:]
	// Clear the expired slot so the batch (and anything memoized on it)
	// is not kept reachable by the slice's backing array.
	var zero D
	m.batches[0] = zero
	m.batches = m.batches[1:]
	m.liveModelOK = false
}

// clear empties the live window (tumbling mode); callers hold m.mu.
//
//lint:holds mu
func (m *Monitor[D, M]) clear() {
	for m.live.Batches() > 0 {
		m.expire()
	}
}

// induceLive induces the current window's model, reusing the one the last
// emission induced when the window has not advanced since; callers hold
// m.mu.
//
//lint:holds mu
func (m *Monitor[D, M]) induceLive() (M, error) {
	if m.liveModelOK {
		return m.liveModel, nil
	}
	model, err := m.live.Induce()
	if err != nil {
		var zero M
		return zero, err
	}
	m.liveModel, m.liveModelOK = model, true
	return model, nil
}

// snapshot makes the live window the reference (PreviousWindow mode);
// callers hold m.mu.
//
//lint:holds mu
func (m *Monitor[D, M]) snapshot() error {
	model, err := m.induceLive()
	if err != nil {
		return err
	}
	m.ref = m.live.Clone()
	m.refModel = model
	m.hasRefModel = true
	m.refPromoted = true
	return nil
}

// qualify bootstraps the emitted deviation over the reference and window
// raw data (Section 3.4 applied to the monitoring statistic). The observed
// deviation is the one measured from the windows' mergeable summaries,
// which equals the deviation of the windows' concatenated data, so only
// the pool and the null are computed: bit-identical to core.Qualify over
// the raw data. Callers hold m.mu.
//
//lint:holds mu
func (m *Monitor[D, M]) qualify(observed float64, seed int64) (*core.Qualification, error) {
	refData := m.ref.Data()
	curData := m.live.Data()
	if m.mc.Len(refData) == 0 || m.mc.Len(curData) == 0 {
		return nil, errors.New("stream: qualification requires non-empty reference and window")
	}
	q, err := core.QualifyObserved(m.mc, refData, curData, observed, m.opts.F, m.opts.G, core.WithConfig(core.Config{
		Replicates:  m.opts.Replicates,
		Seed:        seed,
		Parallelism: m.opts.Parallelism,
	}))
	if err != nil {
		return nil, err
	}
	return &q, nil
}

// Epoch returns the epoch of the most recent ingest.
func (m *Monitor[D, M]) Epoch() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Reports returns the number of reports emitted so far.
func (m *Monitor[D, M]) Reports() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seq
}

// Last returns the most recent report, or nil before the first emission.
func (m *Monitor[D, M]) Last() *Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.last == nil {
		return nil
	}
	cp := *m.last
	return &cp
}

// WindowBatches returns the number of batches currently in the window.
func (m *Monitor[D, M]) WindowBatches() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.live.Batches()
}

// WindowN returns the number of transactions/tuples currently in the
// window.
func (m *Monitor[D, M]) WindowN() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.live.N()
}

// MonitorState is the replayable state of a Monitor, produced by
// ExportState and reinstated by RestoreState: the live window's raw
// batches with their epochs, the intake counters, and — when the reference
// has been promoted from a window (PreviousWindow mode) — the reference
// window's pooled rows. Together with the constructor arguments it
// determines every future emission bit-for-bit, which is what makes
// monitor sessions durable: a serving layer persists this state (plus a
// write-ahead log of batches fed since) and reproduces the exact monitor
// on recovery.
type MonitorState[D any] struct {
	// Epoch is the epoch of the most recent ingest.
	Epoch int64
	// Seq is the number of reports emitted so far.
	Seq int
	// Epochs holds one epoch per live batch, oldest first.
	Epochs []int64
	// Batches holds the live window's raw batches, oldest first, aligned
	// with Epochs.
	Batches []D
	// RefPromoted reports that the reference was promoted from a window
	// rather than pinned at construction; RefData then holds the promoted
	// window's pooled rows.
	RefPromoted bool
	RefData     D
}

// ExportState snapshots the monitor's replayable state. The returned
// batches alias the retained ones — immutable by the Ingest contract — so
// the export is cheap.
func (m *Monitor[D, M]) ExportState() MonitorState[D] {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := MonitorState[D]{
		Epoch:   m.epoch,
		Seq:     m.seq,
		Epochs:  append([]int64(nil), m.epochs...),
		Batches: append([]D(nil), m.batches...),
	}
	if m.refPromoted {
		st.RefPromoted = true
		st.RefData = m.ref.Data()
	}
	return st
}

// RestoreState reinstates an exported state into a freshly constructed
// monitor (same model class, same Options, same construction reference).
// Rebuilding the window summaries from the exported raw batches is
// bit-identical to the original intake — the same determinism contract the
// equivalence tests pin — so a restored monitor's future emissions,
// including the per-emission bootstrap RNG streams (seeded by Seq), match
// the uninterrupted monitor's exactly. The last-report cache is not part
// of the state: Last returns nil until the first post-restore emission.
//
// A state the monitor's window policy cannot produce is refused: a
// sliding window over its batch count, batch epochs above the state's
// epoch or decreasing, or, under EpochWindow, a batch expiry would already
// have dropped. A tumbling window's batch count is not checked: an ingest
// that fails after Add can leave one over-full (see ROADMAP item 1).
func (m *Monitor[D, M]) RestoreState(st MonitorState[D]) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.seq != 0 || len(m.epochs) != 0 || m.live.Batches() != 0 {
		return errors.New("stream: RestoreState requires a freshly constructed monitor")
	}
	if len(st.Epochs) != len(st.Batches) {
		return fmt.Errorf("stream: state holds %d epochs for %d batches", len(st.Epochs), len(st.Batches))
	}
	if !m.opts.Tumbling && m.opts.EpochWindow == 0 && len(st.Batches) > m.opts.WindowBatches {
		return fmt.Errorf("stream: state holds %d batches, the window keeps %d", len(st.Batches), m.opts.WindowBatches)
	}
	for i, e := range st.Epochs {
		switch {
		case e > st.Epoch:
			return fmt.Errorf("stream: batch %d epoch %d is above the state's epoch %d", i, e, st.Epoch)
		case i > 0 && e < st.Epochs[i-1]:
			return fmt.Errorf("stream: batch %d epoch %d decreases from %d", i, e, st.Epochs[i-1])
		case m.opts.EpochWindow > 0 && e <= st.Epoch-m.opts.EpochWindow:
			return fmt.Errorf("stream: batch %d epoch %d expired from the window at epoch %d", i, e, st.Epoch)
		}
	}
	if st.RefPromoted {
		if !m.opts.PreviousWindow {
			return errors.New("stream: promoted reference state for a pinned-reference monitor")
		}
		// Mirror New: clone the still-empty live window so the reference
		// shares its sealed-summary bookkeeping.
		rw := m.live.Clone()
		if err := rw.Add(st.RefData, m.opts.Parallelism); err != nil {
			return fmt.Errorf("stream: restoring reference window: %w", err)
		}
		rm, err := rw.Induce()
		if err != nil {
			return fmt.Errorf("stream: restoring reference model: %w", err)
		}
		m.ref, m.refModel, m.hasRefModel, m.refPromoted = rw, rm, true, true
	}
	for i, b := range st.Batches {
		if err := m.live.Add(b, m.opts.Parallelism); err != nil {
			return fmt.Errorf("stream: restoring window batch %d: %w", i, err)
		}
	}
	m.batches = append(m.batches, st.Batches...)
	m.epochs = append(m.epochs, st.Epochs...)
	m.epoch, m.seq = st.Epoch, st.Seq
	return nil
}
