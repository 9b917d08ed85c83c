package stream

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"weak"

	"focus/internal/apriori"
	"focus/internal/classgen"
	"focus/internal/cluster"
	"focus/internal/core"
	"focus/internal/dataset"
	"focus/internal/dtree"
	"focus/internal/txn"
)

// ---------- window-policy simulation ----------
//
// The equivalence tests rebuild every emitted window's model from its raw
// batches through the batch public API and demand bit-identical deviations.
// The simulator below independently tracks which batches the window policy
// retains; scenario tests (TestSlidingWindowContents etc.) pin the policy
// itself against hand-computed expectations.

type simEntry struct {
	idx   int
	epoch int64
}

type sim struct {
	opts    Options
	win     []simEntry
	prev    []int
	hasPrev bool
}

// step mirrors Monitor.IngestEpoch's window policy over batch indices. It
// returns whether a report is emitted and, if so, the batch indices of the
// window and of the reference (refIdx nil means the pinned reference).
func (s *sim) step(idx int, epoch int64) (emit bool, winIdx, refIdx []int, refPinned bool) {
	s.win = append(s.win, simEntry{idx, epoch})
	if s.opts.EpochWindow > 0 {
		for len(s.win) > 0 && s.win[0].epoch <= epoch-s.opts.EpochWindow {
			s.win = s.win[1:]
		}
	} else if !s.opts.Tumbling {
		for len(s.win) > s.opts.WindowBatches {
			s.win = s.win[1:]
		}
	} else if len(s.win) < s.opts.WindowBatches {
		return false, nil, nil, false
	}
	cur := make([]int, len(s.win))
	for i, e := range s.win {
		cur[i] = e.idx
	}
	if s.opts.PreviousWindow && !s.hasPrev {
		s.prev = cur
		s.hasPrev = true
		if s.opts.Tumbling {
			s.win = nil
		}
		return false, nil, nil, false
	}
	winIdx = cur
	if s.opts.PreviousWindow {
		refIdx = s.prev
		refPinned = s.prev == nil
		s.prev = cur
	} else {
		refPinned = true
	}
	if s.opts.Tumbling {
		s.win = nil
	}
	return true, winIdx, refIdx, refPinned
}

// policyCases returns the six window policies the equivalence tests sweep:
// {sliding, tumbling, epoch-based} x {pinned reference, previous window}.
func policyCases() []struct {
	name string
	opts Options
} {
	return []struct {
		name string
		opts Options
	}{
		{"sliding-pinned", Options{WindowBatches: 3}},
		{"sliding-prev", Options{WindowBatches: 3, PreviousWindow: true}},
		{"tumbling-pinned", Options{WindowBatches: 2, Tumbling: true}},
		{"tumbling-prev", Options{WindowBatches: 2, Tumbling: true, PreviousWindow: true}},
		{"epoch-pinned", Options{EpochWindow: 2}},
		{"epoch-prev", Options{EpochWindow: 2, PreviousWindow: true}},
	}
}

func fgCases() []struct {
	name string
	f    core.DiffFunc
	g    core.AggFunc
} {
	return []struct {
		name string
		f    core.DiffFunc
		g    core.AggFunc
	}{
		{"fa-sum", core.AbsoluteDiff, core.Sum},
		{"fa-max", core.AbsoluteDiff, core.Max},
		{"fs-sum", core.ScaledDiff, core.Sum},
		{"fs-max", core.ScaledDiff, core.Max},
	}
}

// epochs: two batches share each epoch, driving real multi-batch expiry in
// the epoch-based policies.
func epochOf(i int) int64 { return int64(i / 2) }

// ---------- random data ----------

func randTxnBatches(seed int64, batches, size, numItems, maxLen int) [][]txn.Transaction {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]txn.Transaction, batches)
	for b := range out {
		out[b] = make([]txn.Transaction, size)
		for i := range out[b] {
			t := make(txn.Transaction, 1+rng.Intn(maxLen))
			for j := range t {
				t[j] = txn.Item(rng.Intn(numItems))
			}
			out[b][i] = t.Normalize()
		}
	}
	return out
}

func concatTxns(numItems int, batches [][]txn.Transaction, idx []int) *txn.Dataset {
	d := txn.New(numItems)
	for _, i := range idx {
		d.Add(batches[i]...)
	}
	return d
}

func classBatches(t *testing.T, fns []classgen.Function, size int, seed int64) [][]dataset.Tuple {
	t.Helper()
	out := make([][]dataset.Tuple, len(fns))
	for i, fn := range fns {
		d, err := classgen.Generate(classgen.Config{NumTuples: size, Function: fn, Seed: seed + int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = d.Tuples
	}
	return out
}

func concatTuples(s *dataset.Schema, batches [][]dataset.Tuple, idx []int) *dataset.Dataset {
	d := dataset.New(s)
	for _, i := range idx {
		d.Add(batches[i]...)
	}
	return d
}

// ---------- equivalence: monitor == rebuild from raw batches ----------

// TestLitsMonitorEquivalence is the acceptance test of the incremental
// contract for lits-models: at every emission, for every window policy,
// f/g combination and parallelism in {1,4}, the monitor's deviation is
// bit-identical (==) to mining the window's model from its raw batches and
// running the batch Deviation.
func TestLitsMonitorEquivalence(t *testing.T) {
	const (
		numItems   = 30
		minSupport = 0.06
	)
	batches := randTxnBatches(11, 7, 50, numItems, 8)
	ref := concatTxns(numItems, randTxnBatches(12, 3, 60, numItems, 8), []int{0, 1, 2})

	for _, pc := range policyCases() {
		for _, fg := range fgCases() {
			for _, par := range []int{1, 4} {
				opts := pc.opts
				opts.F, opts.G, opts.Parallelism = fg.f, fg.g, par
				name := pc.name + "/" + fg.name + "/par" + string(rune('0'+par))
				mon, err := New(core.Lits(minSupport), ref, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				// The lits monitor always has a pinned initial reference.
				s := &sim{opts: opts, hasPrev: true}
				emitted := 0
				for i, b := range batches {
					rep, err := mon.IngestEpoch(epochOf(i), &txn.Dataset{NumItems: numItems, Txns: b})
					if err != nil {
						t.Fatalf("%s: ingest %d: %v", name, i, err)
					}
					emit, winIdx, refIdx, refPinned := s.step(i, epochOf(i))
					if emit != (rep != nil) {
						t.Fatalf("%s: ingest %d: emitted=%v, want %v", name, i, rep != nil, emit)
					}
					if rep == nil {
						continue
					}
					emitted++
					winData := concatTxns(numItems, batches, winIdx)
					refData := ref
					if !refPinned {
						refData = concatTxns(numItems, batches, refIdx)
					}
					m1, err := core.MineLitsP(refData, minSupport, par)
					if err != nil {
						t.Fatal(err)
					}
					m2, err := core.MineLitsP(winData, minSupport, par)
					if err != nil {
						t.Fatal(err)
					}
					want, err := core.Deviation(core.Lits(minSupport), m1, m2, refData, winData, fg.f, fg.g, core.WithParallelism(par))
					if err != nil {
						t.Fatal(err)
					}
					if rep.Deviation != want {
						t.Errorf("%s: ingest %d: incremental deviation %v != rebuilt %v", name, i, rep.Deviation, want)
					}
					if rep.N != winData.Len() || rep.RefN != refData.Len() || rep.Batches != len(winIdx) {
						t.Errorf("%s: ingest %d: report N=%d RefN=%d Batches=%d, want %d/%d/%d",
							name, i, rep.N, rep.RefN, rep.Batches, winData.Len(), refData.Len(), len(winIdx))
					}
				}
				if emitted == 0 {
					t.Errorf("%s: no reports emitted", name)
				}
			}
		}
	}
}

// hotTxnBatches draws batches whose transactions favour a hot set of ten
// items that shifts every two batches, over ids below 64, so windows mine
// itemsets several levels deep and drift against each other.
func hotTxnBatches(seed int64, batches, size int) [][]txn.Transaction {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]txn.Transaction, batches)
	for b := range out {
		hot := b / 2 * 4
		out[b] = make([]txn.Transaction, size)
		for i := range out[b] {
			t := make(txn.Transaction, 2+rng.Intn(6))
			for j := range t {
				if rng.Intn(5) == 0 {
					t[j] = txn.Item(rng.Intn(64))
				} else {
					t[j] = txn.Item(hot + rng.Intn(10))
				}
			}
			out[b][i] = t.Normalize()
		}
	}
	return out
}

// TestLitsWindowPathsEquivalent runs one lits batch stream under two item
// universes: 64 items, whose windows mine through the incremental
// apriori.WindowMiner, and 6,000 items, whose full-universe pair table
// the engine refuses, so windows mine their batches through the fill
// kernel of bootstrap views (apriori.MineConcat). No transaction names an
// item past 63, so both monitors must report identically — deviations,
// region counts, alerts and qualifications — under every window policy,
// f/g and parallelism.
func TestLitsWindowPathsEquivalent(t *testing.T) {
	const (
		narrow, wide = 64, 6000
		minSupport   = 0.05
	)
	if !apriori.UseWindowMiner(narrow) || apriori.UseWindowMiner(wide) {
		t.Fatal("the two universes no longer take the window miner and the fill kernel")
	}
	batches := hotTxnBatches(21, 7, 60)
	refTxns := hotTxnBatches(22, 1, 180)[0]
	alerts, quiet := 0, 0
	for _, pc := range policyCases() {
		for _, fg := range fgCases() {
			for _, par := range []int{1, 4} {
				name := pc.name + "/" + fg.name + "/par" + string(rune('0'+par))
				opts := pc.opts
				opts.F, opts.G, opts.Parallelism = fg.f, fg.g, par
				opts.Threshold = 0.25
				// Bootstrap qualification on every emission is the
				// expensive path; one f/g keeps the sweep quick.
				opts.Qualify, opts.Replicates, opts.Seed = fg.name == "fa-sum", 19, 17
				var mons []*Monitor[*txn.Dataset, *core.LitsModel]
				for _, numItems := range []int{narrow, wide} {
					mon, err := New(core.Lits(minSupport), &txn.Dataset{NumItems: numItems, Txns: refTxns}, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					mons = append(mons, mon)
				}
				emitted := 0
				for i, b := range batches {
					var reps []*Report
					for j, numItems := range []int{narrow, wide} {
						rep, err := mons[j].IngestEpoch(epochOf(i), &txn.Dataset{NumItems: numItems, Txns: b})
						if err != nil {
							t.Fatalf("%s: ingest %d into %d items: %v", name, i, numItems, err)
						}
						reps = append(reps, rep)
					}
					if !reflect.DeepEqual(reps[0], reps[1]) {
						t.Fatalf("%s: ingest %d: window miner report %+v != fill kernel %+v", name, i, reps[0], reps[1])
					}
					if reps[0] == nil {
						continue
					}
					emitted++
					if reps[0].Alert {
						alerts++
					} else {
						quiet++
					}
				}
				if emitted == 0 {
					t.Errorf("%s: no reports emitted", name)
				}
			}
		}
	}
	if alerts == 0 || quiet == 0 {
		t.Errorf("the sweep raised %d alerts and %d quiet reports; both paths must be compared", alerts, quiet)
	}
}

// TestLitsWideUniverseHeap pins that a lits monitor over a wide universe
// holds memory in proportion to what every path keeps — the rows and one
// pass-1 count vector per live batch and window — not a vertical index per
// batch sized by the universe. 64-row batches over 1,000,000 items would
// each fit an index under the engine's memory cap (32 B per universe item,
// almost all set headers and counts), but the engine keeps them on the
// trie, so no batch memoizes one and the live heap stays under a bound the
// per-batch indexes would exceed several times over.
func TestLitsWideUniverseHeap(t *testing.T) {
	const (
		numItems = 1_000_000
		window   = 4
		ingests  = 2 * window
	)
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := liveHeap()
	rng := rand.New(rand.NewSource(23))
	rows := func(n int) []txn.Transaction {
		out := make([]txn.Transaction, n)
		for i := range out {
			tr := make(txn.Transaction, 2+rng.Intn(8))
			for j := range tr {
				tr[j] = txn.Item(rng.Intn(numItems))
			}
			out[i] = tr.Normalize()
		}
		return out
	}
	mon, err := New(core.Lits(0.05), &txn.Dataset{NumItems: numItems, Txns: rows(64)}, Options{WindowBatches: window, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var fed []*txn.Dataset
	var peak uint64
	for i := range ingests {
		d := &txn.Dataset{NumItems: numItems, Txns: rows(64)}
		if _, err := mon.Ingest(d); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		fed = append(fed, d)
		if h := liveHeap(); h > base {
			peak = max(peak, h-base)
		}
	}
	for i, d := range fed {
		if d.HasMemo() {
			t.Errorf("batch %d memoized a vertical index over the %d-item universe", i, numItems)
		}
	}
	// The window and the reference each hold one 8 MB count vector per
	// batch plus an aggregate: about 7 vectors, or 56 MB. A memoized index
	// per live batch adds 32 MB each.
	const bound = 96 << 20
	if peak > bound {
		t.Errorf("live heap grew by %d MiB over %d ingests, want at most %d MiB", peak>>20, ingests, bound>>20)
	}
	t.Logf("peak live heap growth %d MiB", peak>>20)
}

// TestPinnedLitsReferenceHeap pins that a pinned lits reference keeps no
// incremental miner: the reference window is mined once and never
// advances, so a monitor over 5,000 items must not hold the miner's
// full-universe pair table (5,000²/2 × 4 bytes, about 48 MiB) after New.
// The reference holds its rows, one pass-1 count vector and its memoized
// index: well under a megabyte here.
func TestPinnedLitsReferenceHeap(t *testing.T) {
	const numItems = 5000
	if !apriori.UseWindowMiner(numItems) {
		t.Fatal("the universe no longer takes the window miner")
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	rng := rand.New(rand.NewSource(29))
	ref := &txn.Dataset{NumItems: numItems, Txns: make([]txn.Transaction, 512)}
	for i := range ref.Txns {
		tr := make(txn.Transaction, 2+rng.Intn(8))
		for j := range tr {
			tr[j] = txn.Item(rng.Intn(numItems))
		}
		ref.Txns[i] = tr.Normalize()
	}
	base := liveHeap()
	mon, err := New(core.Lits(0.01), ref, Options{WindowBatches: 4, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	grown := int64(liveHeap()) - int64(base)
	runtime.KeepAlive(mon)
	const bound = 8 << 20
	if grown > bound {
		t.Errorf("live heap grew by %d MiB in New, want at most %d MiB", grown>>20, bound>>20)
	}
	t.Logf("live heap growth after New: %d KiB", grown>>10)
}

// TestExpiredBatchesReleased pins that a sliding monitor lets an expired
// batch go: after every advance, nothing of the monitor keeps the expired
// batch (or the vertical index memoized on it) reachable.
func TestExpiredBatchesReleased(t *testing.T) {
	const window = 2
	batches := hotTxnBatches(24, 12, 60)
	mon, err := New(core.Lits(0.05), &txn.Dataset{NumItems: 64, Txns: batches[0]}, Options{WindowBatches: window, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var fed []weak.Pointer[txn.Dataset]
	for i, b := range batches[1:] {
		d := &txn.Dataset{NumItems: 64, Txns: b}
		fed = append(fed, weak.Make(d))
		if _, err := mon.Ingest(d); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		runtime.GC()
		for j := range i + 1 - window {
			if fed[j].Value() != nil {
				t.Fatalf("after ingest %d, the monitor kept expired batch %d reachable", i, j)
			}
		}
	}
	runtime.KeepAlive(mon)
}

// TestLitsIngestAllocFlat pins that a lits window keeps no state that
// grows with the itemsets a stream has ever produced: over a 500-item
// stream whose hot items drift, the bytes one Ingest allocates late in the
// stream stay within twice those early on, while the window and its
// models keep the same shape.
func TestLitsIngestAllocFlat(t *testing.T) {
	const (
		numItems = 500
		rows     = 128
		early    = 100
		late     = 1500
		samples  = 20
	)
	rng := rand.New(rand.NewSource(31))
	batch := func(feed int) *txn.Dataset {
		hot := feed / 4 % (numItems - 20)
		d := &txn.Dataset{NumItems: numItems, Txns: make([]txn.Transaction, rows)}
		for i := range d.Txns {
			tr := make(txn.Transaction, 3+rng.Intn(6))
			for j := range tr {
				if rng.Intn(6) == 0 {
					tr[j] = txn.Item(rng.Intn(numItems))
				} else {
					tr[j] = txn.Item(hot + rng.Intn(20))
				}
			}
			d.Txns[i] = tr.Normalize()
		}
		return d
	}
	mon, err := New(core.Lits(0.02), batch(0), Options{WindowBatches: 4, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	var alloc [2]uint64
	for feed := 1; feed < late+samples; feed++ {
		d := batch(feed)
		phase := -1
		switch {
		case feed >= early && feed < early+samples:
			phase = 0
		case feed >= late:
			phase = 1
		}
		if phase >= 0 {
			runtime.ReadMemStats(&ms)
			alloc[phase] -= ms.TotalAlloc
		}
		if _, err := mon.Ingest(d); err != nil {
			t.Fatalf("ingest %d: %v", feed, err)
		}
		if phase >= 0 {
			runtime.ReadMemStats(&ms)
			alloc[phase] += ms.TotalAlloc
		}
	}
	t.Logf("bytes per ingest: %d near feed %d, %d near feed %d", alloc[0]/samples, early, alloc[1]/samples, late)
	if alloc[1] > 2*alloc[0] {
		t.Errorf("an ingest near feed %d allocated %d bytes, more than twice the %d near feed %d", late, alloc[1]/samples, alloc[0]/samples, early)
	}
}

// TestDTMonitorEquivalence: same contract for dt-models over a pinned
// tree, against DTDeviationOverTreeP on the rebuilt window.
func TestDTMonitorEquivalence(t *testing.T) {
	train, err := classgen.Generate(classgen.Config{NumTuples: 1500, Function: classgen.F2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := dtree.Build(train, dtree.Config{MaxDepth: 5, MinLeaf: 40})
	if err != nil {
		t.Fatal(err)
	}
	refD, err := classgen.Generate(classgen.Config{NumTuples: 800, Function: classgen.F2, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	batches := classBatches(t,
		[]classgen.Function{classgen.F2, classgen.F2, classgen.F3, classgen.F2, classgen.F1, classgen.F2, classgen.F3},
		150, 30)

	for _, pc := range policyCases() {
		for _, fg := range fgCases() {
			for _, par := range []int{1, 4} {
				opts := pc.opts
				opts.F, opts.G, opts.Parallelism = fg.f, fg.g, par
				name := pc.name + "/" + fg.name + "/par" + string(rune('0'+par))
				// Exercise both reference styles: pinned-reference
				// policies get ref data, previous-window policies start
				// without any.
				var ref *dataset.Dataset
				if !opts.PreviousWindow {
					ref = refD
				}
				mon, err := New(core.PinnedDT(tree), ref, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				s := &sim{opts: opts, hasPrev: ref != nil}
				emitted := 0
				for i, b := range batches {
					rep, err := mon.IngestEpoch(epochOf(i), dataset.FromTuples(tree.Schema, b))
					if err != nil {
						t.Fatalf("%s: ingest %d: %v", name, i, err)
					}
					emit, winIdx, refIdx, refPinned := s.step(i, epochOf(i))
					if emit != (rep != nil) {
						t.Fatalf("%s: ingest %d: emitted=%v, want %v", name, i, rep != nil, emit)
					}
					if rep == nil {
						continue
					}
					emitted++
					winData := concatTuples(tree.Schema, batches, winIdx)
					refData := refD
					if !refPinned {
						refData = concatTuples(tree.Schema, batches, refIdx)
					}
					want, err := core.DTDeviationOverTreeP(tree, refData, winData, fg.f, fg.g, par)
					if err != nil {
						t.Fatal(err)
					}
					if rep.Deviation != want {
						t.Errorf("%s: ingest %d: incremental deviation %v != rebuilt %v", name, i, rep.Deviation, want)
					}
				}
				if emitted == 0 {
					t.Errorf("%s: no reports emitted", name)
				}
			}
		}
	}
}

// TestClusterMonitorEquivalence: same contract for cluster-models — the
// window model is re-induced from aggregated cell counts and must match
// BuildClusterModel + Deviation on the rebuilt window.
func TestClusterMonitorEquivalence(t *testing.T) {
	schema := classgen.Schema()
	grid, err := cluster.NewGrid(schema, []int{classgen.AttrSalary, classgen.AttrAge}, 6)
	if err != nil {
		t.Fatal(err)
	}
	const minDensity = 0.02
	refD, err := classgen.Generate(classgen.Config{NumTuples: 900, Function: classgen.F1, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	batches := classBatches(t,
		[]classgen.Function{classgen.F1, classgen.F1, classgen.F4, classgen.F1, classgen.F3, classgen.F1, classgen.F4},
		140, 50)

	for _, pc := range policyCases() {
		for _, fg := range fgCases() {
			for _, par := range []int{1, 4} {
				opts := pc.opts
				opts.F, opts.G, opts.Parallelism = fg.f, fg.g, par
				name := pc.name + "/" + fg.name + "/par" + string(rune('0'+par))
				var ref *dataset.Dataset
				if !opts.PreviousWindow {
					ref = refD
				}
				mon, err := New(core.Cluster(grid, minDensity), ref, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				s := &sim{opts: opts, hasPrev: ref != nil}
				emitted := 0
				for i, b := range batches {
					rep, err := mon.IngestEpoch(epochOf(i), dataset.FromTuples(schema, b))
					if err != nil {
						t.Fatalf("%s: ingest %d: %v", name, i, err)
					}
					emit, winIdx, refIdx, refPinned := s.step(i, epochOf(i))
					if emit != (rep != nil) {
						t.Fatalf("%s: ingest %d: emitted=%v, want %v", name, i, rep != nil, emit)
					}
					if rep == nil {
						continue
					}
					emitted++
					winData := concatTuples(schema, batches, winIdx)
					refData := refD
					if !refPinned {
						refData = concatTuples(schema, batches, refIdx)
					}
					m1, err := core.BuildClusterModel(refData, grid, minDensity)
					if err != nil {
						t.Fatal(err)
					}
					m2, err := core.BuildClusterModel(winData, grid, minDensity)
					if err != nil {
						t.Fatal(err)
					}
					want, err := core.Deviation(core.Cluster(grid, minDensity), m1, m2, refData, winData, fg.f, fg.g, core.WithParallelism(par))
					if err != nil {
						t.Fatal(err)
					}
					if rep.Deviation != want {
						t.Errorf("%s: ingest %d: incremental deviation %v != rebuilt %v", name, i, rep.Deviation, want)
					}
				}
				if emitted == 0 {
					t.Errorf("%s: no reports emitted", name)
				}
			}
		}
	}
}

// ---------- window-policy scenarios ----------

func TestSlidingWindowContents(t *testing.T) {
	batches := randTxnBatches(5, 5, 10, 20, 5)
	ref := concatTxns(20, batches, []int{0})
	mon, err := New(core.Lits(0.1), ref, Options{WindowBatches: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantBatches := []int{1, 2, 2, 2, 2}
	for i, b := range batches {
		rep, err := mon.Ingest(&txn.Dataset{NumItems: 20, Txns: b})
		if err != nil {
			t.Fatal(err)
		}
		if rep == nil {
			t.Fatalf("ingest %d: sliding window must emit every time", i)
		}
		if rep.Batches != wantBatches[i] || rep.N != wantBatches[i]*10 {
			t.Errorf("ingest %d: Batches=%d N=%d, want %d/%d", i, rep.Batches, rep.N, wantBatches[i], wantBatches[i]*10)
		}
		if rep.Seq != i {
			t.Errorf("ingest %d: Seq=%d", i, rep.Seq)
		}
	}
}

func TestTumblingWindowEmitsOnFull(t *testing.T) {
	batches := randTxnBatches(6, 6, 10, 20, 5)
	ref := concatTxns(20, batches, []int{0})
	mon, err := New(core.Lits(0.1), ref, Options{WindowBatches: 3, Tumbling: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		rep, err := mon.Ingest(&txn.Dataset{NumItems: 20, Txns: b})
		if err != nil {
			t.Fatal(err)
		}
		wantEmit := i%3 == 2
		if (rep != nil) != wantEmit {
			t.Fatalf("ingest %d: emitted=%v, want %v", i, rep != nil, wantEmit)
		}
		if rep != nil && (rep.Batches != 3 || rep.N != 30) {
			t.Errorf("ingest %d: Batches=%d N=%d, want 3/30", i, rep.Batches, rep.N)
		}
	}
	if mon.WindowBatches() != 0 {
		t.Errorf("tumbled window still holds %d batches", mon.WindowBatches())
	}
}

func TestEpochWindowExpiry(t *testing.T) {
	batches := randTxnBatches(7, 6, 10, 20, 5)
	ref := concatTxns(20, batches, []int{0})
	mon, err := New(core.Lits(0.1), ref, Options{EpochWindow: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Epochs 0,0,1,3,3,4: the jump from 1 to 3 expires everything older.
	epochs := []int64{0, 0, 1, 3, 3, 4}
	wantBatches := []int{1, 2, 3, 1, 2, 3}
	for i, b := range batches {
		rep, err := mon.IngestEpoch(epochs[i], &txn.Dataset{NumItems: 20, Txns: b})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Batches != wantBatches[i] {
			t.Errorf("ingest %d (epoch %d): Batches=%d, want %d", i, epochs[i], rep.Batches, wantBatches[i])
		}
	}
}

// ---------- behavior ----------

func TestMonitorAlertOnDrift(t *testing.T) {
	train, err := classgen.Generate(classgen.Config{NumTuples: 3000, Function: classgen.F1, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := dtree.Build(train, dtree.Config{MaxDepth: 6, MinLeaf: 30})
	if err != nil {
		t.Fatal(err)
	}
	var alerts []Report
	mon, err := New(core.PinnedDT(tree), train, Options{
		WindowBatches: 1,
		Threshold:     0.15,
		OnAlert:       func(r Report) { alerts = append(alerts, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	same, err := classgen.Generate(classgen.Config{NumTuples: 1000, Function: classgen.F1, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	drift, err := classgen.Generate(classgen.Config{NumTuples: 1000, Function: classgen.F3, Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	repSame, err := mon.Ingest(same)
	if err != nil {
		t.Fatal(err)
	}
	repDrift, err := mon.Ingest(drift)
	if err != nil {
		t.Fatal(err)
	}
	if repSame.Alert {
		t.Errorf("same-process batch alerted (deviation %v)", repSame.Deviation)
	}
	if !repDrift.Alert {
		t.Errorf("drift batch did not alert (deviation %v)", repDrift.Deviation)
	}
	if len(alerts) != 1 || alerts[0].Seq != repDrift.Seq {
		t.Errorf("OnAlert calls = %+v", alerts)
	}
	if repSame.Deviation >= repDrift.Deviation {
		t.Errorf("deviation(same) %v >= deviation(drift) %v", repSame.Deviation, repDrift.Deviation)
	}
}

func TestMonitorQualifyDeterministic(t *testing.T) {
	batches := randTxnBatches(71, 3, 40, 25, 6)
	ref := concatTxns(25, randTxnBatches(72, 2, 60, 25, 6), []int{0, 1})
	run := func() []Report {
		mon, err := New(core.Lits(0.08), ref, Options{WindowBatches: 2, Qualify: true, Replicates: 19, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var out []Report
		for _, b := range batches {
			rep, err := mon.Ingest(&txn.Dataset{NumItems: 25, Txns: b})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, *rep)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Qual == nil || b[i].Qual == nil {
			t.Fatalf("report %d: missing qualification", i)
		}
		if a[i].Deviation != b[i].Deviation || a[i].Qual.Significance != b[i].Qual.Significance {
			t.Errorf("report %d not deterministic: %v/%v vs %v/%v",
				i, a[i].Deviation, a[i].Qual.Significance, b[i].Deviation, b[i].Qual.Significance)
		}
		if a[i].Qual.Deviation != a[i].Deviation {
			t.Errorf("report %d: Qual.Deviation %v != Deviation %v", i, a[i].Qual.Deviation, a[i].Deviation)
		}
		if s := a[i].Qual.Significance; s < 0 || s > 100 {
			t.Errorf("report %d: significance %v outside [0,100]", i, s)
		}
		if len(a[i].Qual.Null) != 19 {
			t.Errorf("report %d: null size %d", i, len(a[i].Qual.Null))
		}
	}
	// Successive emissions must draw distinct seeds: two reports with the
	// same data would otherwise share a null verbatim.
	if len(a) >= 2 && a[0].Seq == a[1].Seq {
		t.Error("sequence numbers did not advance")
	}
}

func TestMonitorEpochRegressionError(t *testing.T) {
	batches := randTxnBatches(81, 2, 10, 20, 5)
	ref := concatTxns(20, batches, []int{0})
	mon, err := New(core.Lits(0.1), ref, Options{WindowBatches: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mon.IngestEpoch(5, &txn.Dataset{NumItems: 20, Txns: batches[0]}); err != nil {
		t.Fatal(err)
	}
	if _, err := mon.IngestEpoch(4, &txn.Dataset{NumItems: 20, Txns: batches[1]}); err == nil {
		t.Fatal("regressing epoch did not error")
	}
}

// A batch the window rejects must leave the monitor untouched: the epoch
// it carried is not consumed, so a later, lower epoch is still accepted.
func TestMonitorRejectedBatchKeepsEpoch(t *testing.T) {
	batches := randTxnBatches(82, 3, 10, 4, 3)
	mon, err := New(core.Lits(0.2), concatTxns(4, batches, []int{0}), Options{WindowBatches: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mon.IngestEpoch(1, &txn.Dataset{NumItems: 4, Txns: batches[1]}); err != nil {
		t.Fatal(err)
	}
	before := mon.ExportState()
	wide := &txn.Dataset{NumItems: 9, Txns: batches[2]}
	if _, err := mon.IngestEpoch(5, wide); err == nil || !strings.Contains(err.Error(), "universe") {
		t.Fatalf("a batch over a different universe: err = %v, want a universe mismatch", err)
	}
	if after := mon.ExportState(); !reflect.DeepEqual(after, before) {
		t.Fatalf("rejected batch changed the monitor state:\nbefore %+v\nafter  %+v", before, after)
	}
	if _, err := mon.IngestEpoch(2, &txn.Dataset{NumItems: 4, Txns: batches[2]}); err != nil {
		t.Fatalf("valid batch after a rejected one: %v", err)
	}
}

func TestMonitorInvalidBatch(t *testing.T) {
	ref := concatTxns(10, randTxnBatches(91, 1, 10, 10, 4), []int{0})
	mon, err := New(core.Lits(0.1), ref, Options{WindowBatches: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mon.Ingest(&txn.Dataset{NumItems: 10, Txns: []txn.Transaction{{3, 99}}}); err == nil {
		t.Fatal("out-of-universe item did not error")
	} else if !strings.Contains(err.Error(), "invalid batch") {
		t.Fatalf("unexpected error: %v", err)
	}

	train, err := classgen.Generate(classgen.Config{NumTuples: 600, Function: classgen.F1, Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := dtree.Build(train, dtree.Config{MaxDepth: 4, MinLeaf: 30})
	if err != nil {
		t.Fatal(err)
	}
	dmon, err := New(core.PinnedDT(tree), train, Options{WindowBatches: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dmon.Ingest(dataset.FromTuples(tree.Schema, []dataset.Tuple{{1, 2}})); err == nil {
		t.Fatal("wrong-arity tuple did not error")
	}
}

// The generic constructor must reject nil class parameters with errors,
// not nil-pointer panics, and report a malformed reference as such.
func TestGenericMonitorNilGuards(t *testing.T) {
	train, err := classgen.Generate(classgen.Config{NumTuples: 400, Function: classgen.F1, Seed: 95})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(core.PinnedDT(nil), train, Options{WindowBatches: 1}); err == nil {
		t.Error("PinnedDT(nil) did not error")
	}
	if _, err := New(core.Cluster(nil, 0.1), train, Options{WindowBatches: 1}); err == nil {
		t.Error("Cluster(nil grid) did not error")
	}
	badRef := &txn.Dataset{NumItems: 5, Txns: []txn.Transaction{{3, 99}}}
	_, err = New(core.Lits(0.1), badRef, Options{WindowBatches: 1})
	if err == nil || !strings.Contains(err.Error(), "invalid reference") {
		t.Errorf("malformed reference error = %v, want 'invalid reference'", err)
	}
}

func TestMonitorOptionValidation(t *testing.T) {
	ref := concatTxns(10, randTxnBatches(93, 1, 10, 10, 4), []int{0})
	lits := core.Lits(0.1)
	if _, err := New(lits, ref, Options{}); err == nil {
		t.Error("WindowBatches 0 without EpochWindow did not error")
	}
	if _, err := New(lits, ref, Options{EpochWindow: 2, Tumbling: true}); err == nil {
		t.Error("tumbling epoch window did not error")
	}
	if _, err := New(lits, ref, Options{EpochWindow: 2, WindowBatches: 3}); err == nil {
		t.Error("both window kinds did not error")
	}
	if _, err := New(lits, ref, Options{WindowBatches: 1, FocusItemsets: func(apriori.Itemset) bool { return true }}); err == nil {
		t.Error("unsupported focus option did not error")
	}
	if _, err := New(lits, ref, Options{WindowBatches: 1, Extension: true}); err == nil {
		t.Error("unsupported Extension option did not error")
	}
	if _, err := New(lits, nil, Options{WindowBatches: 1}); err == nil {
		t.Error("nil lits reference did not error")
	}
	if _, err := New(core.PinnedDT(nil), nil, Options{WindowBatches: 1}); err == nil {
		t.Error("nil tree did not error")
	}
	train, err := classgen.Generate(classgen.Config{NumTuples: 600, Function: classgen.F1, Seed: 94})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := dtree.Build(train, dtree.Config{MaxDepth: 4, MinLeaf: 30})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(core.PinnedDT(tree), nil, Options{WindowBatches: 1}); err == nil {
		t.Error("dt monitor without reference or PreviousWindow did not error")
	}
	grid, err := cluster.NewGrid(classgen.Schema(), []int{classgen.AttrSalary}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(core.Cluster(grid, 0.1), nil, Options{WindowBatches: 1}); err == nil {
		t.Error("cluster monitor without reference or PreviousWindow did not error")
	}
	if _, err := New(core.Cluster(nil, 0.1), train, Options{WindowBatches: 1}); err == nil {
		t.Error("nil grid did not error")
	}

	// Class parameters are checked when the monitor is built, with or
	// without a reference to induce from.
	prev := Options{WindowBatches: 1, PreviousWindow: true}
	for _, ms := range []float64{0, -0.1, 1.5} {
		if _, err := New(core.Lits(ms), ref, Options{WindowBatches: 1}); err == nil {
			t.Errorf("minSupport %v did not error", ms)
		}
		if _, err := New(core.Lits(ms), nil, prev); err == nil {
			t.Errorf("minSupport %v without a reference did not error", ms)
		}
	}
	for _, md := range []float64{-0.5, 1.5} {
		if _, err := New(core.Cluster(grid, md), train, Options{WindowBatches: 1}); err == nil {
			t.Errorf("minDensity %v did not error", md)
		}
		if _, err := New(core.Cluster(grid, md), nil, prev); err == nil {
			t.Errorf("minDensity %v without a reference did not error", md)
		}
	}
}

// The monitor's window accounting is checked through the public surface;
// the cache-level incremental guarantees of the lits window are pinned
// down in internal/core's window tests.
func TestMonitorWindowAccounting(t *testing.T) {
	batches := randTxnBatches(95, 3, 30, 20, 6)
	ref := concatTxns(20, randTxnBatches(96, 2, 40, 20, 6), []int{0, 1})
	mon, err := New(core.Lits(0.08), ref, Options{WindowBatches: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantN := 0
	for _, b := range batches {
		wantN += len(b)
		if _, err := mon.Ingest(&txn.Dataset{NumItems: 20, Txns: b}); err != nil {
			t.Fatal(err)
		}
	}
	if mon.WindowBatches() != 3 || mon.WindowN() != wantN {
		t.Errorf("window holds %d batches / %d rows, want 3 / %d", mon.WindowBatches(), mon.WindowN(), wantN)
	}
}
