package dtree

import (
	"fmt"

	"focus/internal/dataset"
	"focus/internal/parallel"
)

// This file is the fast induction engine behind Build/BuildP: per-node
// numeric split search over the presorted attribute lists of attrlist.go
// (exact mode, the default — bit-identical to BuildNaive) or over the
// root-binned histograms of histogram.go (hist mode), with the attributes
// searched on parallel workers and the winners merged in fixed attribute
// order so the tree is independent of the worker count.

// SplitSearch selects the numeric split-search engine of Build.
type SplitSearch string

const (
	// SplitSearchDefault resolves to SplitSearchExact.
	SplitSearchDefault SplitSearch = ""
	// SplitSearchExact sweeps every cut between distinct consecutive
	// values of the presorted attribute lists — the same candidate set as
	// the reference CART builder, producing bit-identical trees.
	SplitSearchExact SplitSearch = "exact"
	// SplitSearchHist searches quantile-bin boundaries computed once at
	// the root: per node, one pass builds a bin-by-class histogram and the
	// sweep runs over bins instead of tuples. Cuts are restricted to bin
	// edges (HistBins per attribute), trading exactness of the chosen cut
	// for per-node O(rows + bins) search.
	SplitSearchHist SplitSearch = "hist"
	// SplitSearchAuto picks per build: hist for large datasets (at least
	// autoHistMinRows rows), exact otherwise.
	SplitSearchAuto SplitSearch = "auto"
)

// ParseSplitSearch validates a split-search name ("exact", "hist" or
// "auto"; "" means exact).
func ParseSplitSearch(name string) (SplitSearch, error) {
	switch s := SplitSearch(name); s {
	case SplitSearchDefault, SplitSearchExact, SplitSearchHist, SplitSearchAuto:
		return s, nil
	default:
		return SplitSearchDefault, fmt.Errorf("dtree: unknown split search %q (want exact, hist or auto)", name)
	}
}

// MustSplitSearch panics on a SplitSearch value outside the known
// vocabulary — the guard for knobs set directly in Config literals rather
// than through ParseSplitSearch. Failing at the call site beats silently
// running an engine the caller did not choose.
func MustSplitSearch(s SplitSearch) {
	if _, err := ParseSplitSearch(string(s)); err != nil {
		panic(err.Error())
	}
}

// autoHistMinRows is the dataset size at which SplitSearchAuto switches
// from the exact sweep to the histogram search: below it the exact engine
// is already cheap and keeps the bit-identical guarantee for free.
const autoHistMinRows = 65536

// parallelSplitMinRows gates the parallel attribute search: nodes with
// fewer rows search serially, since goroutine fan-out costs more than the
// sweep itself. The cutoff is safe for determinism — serial and parallel
// searches produce the identical winner by construction (per-attribute
// results merged in attribute order).
const parallelSplitMinRows = 2048

// resolveSplitSearch maps the knob to a concrete engine for an n-row build.
func resolveSplitSearch(s SplitSearch, n int) SplitSearch {
	switch s {
	case SplitSearchHist:
		return SplitSearchHist
	case SplitSearchAuto:
		if n >= autoHistMinRows {
			return SplitSearchHist
		}
		return SplitSearchExact
	default:
		return SplitSearchExact
	}
}

// engine grows one tree. It is single-goroutine except for bestSplit,
// which fans the per-attribute searches out over parallel workers.
type engine struct {
	data *dataset.Dataset
	cfg  Config
	k    int // number of classes
	par  int // parallelism knob (0 = process default, 1 = serial)
	mode SplitSearch

	class      int   // class attribute index
	splitAttrs []int // every attribute except the class, ascending

	al   *attrLists
	hist *histIndex // hist mode only
}

// newEngine prepares the root state of a build over d, whose row i is the
// ranked dataset's row rows[i]: attribute lists from the ranks in exact
// mode, quantile bins of d in hist mode (which ignores r and rows).
func newEngine(d *dataset.Dataset, r *Ranks, rows []int32, cfg Config, parallelism int) *engine {
	e := &engine{
		data:  d,
		cfg:   cfg,
		k:     d.Schema.NumClasses(),
		par:   parallelism,
		mode:  resolveSplitSearch(cfg.SplitSearch, d.Len()),
		class: d.Schema.Class,
	}
	for a := range d.Schema.Attrs {
		if a != e.class {
			e.splitAttrs = append(e.splitAttrs, a)
		}
	}
	if e.mode == SplitSearchHist {
		e.al = newAttrLists(d.Len(), nil, nil, parallelism)
		e.hist = newHistIndex(d, numericAttrs(d.Schema), cfg.HistBins, parallelism)
	} else {
		e.al = newAttrLists(d.Len(), r, rows, parallelism)
	}
	return e
}

// classOf returns the class index of a row id.
func (e *engine) classOf(id int32) int {
	return int(e.data.Tuples[id][e.class])
}

// classCounts histograms the classes of a row segment.
func (e *engine) classCounts(rows []int32) []int {
	counts := make([]int, e.k)
	for _, id := range rows {
		counts[e.classOf(id)]++
	}
	return counts
}

// grow builds the subtree over the row segment [lo, hi). The stopping
// rules, split selection and realized-MinLeaf guard mirror the reference
// builder exactly.
func (e *engine) grow(lo, hi, depth int) *Node {
	counts := e.classCounts(e.al.rows[lo:hi])
	leaf := &Node{ClassCounts: counts}
	if depth >= e.cfg.MaxDepth || hi-lo < 2*e.cfg.MinLeaf || pure(counts) {
		return leaf
	}
	best := e.bestSplit(lo, hi, counts)
	if !best.valid || best.gain < e.cfg.MinGain {
		return leaf
	}
	nl := e.partition(lo, hi, best)
	if nl < e.cfg.MinLeaf || (hi-lo)-nl < e.cfg.MinLeaf {
		return leaf
	}
	n := &Node{
		Attr:       best.attr,
		Threshold:  best.threshold,
		LeftValues: best.leftValues,
	}
	n.Left = e.grow(lo, lo+nl, depth+1)
	n.Right = e.grow(lo+nl, hi, depth+1)
	return n
}

// bestSplit searches every non-class attribute for the node's best split.
// Attributes are independent, so they run on parallel workers writing
// per-attribute result slots; the merge then walks the slots in ascending
// attribute order applying the serial loop's exact rule (strictly greater
// gain wins, ties keep the earlier attribute), so the winner is
// bit-identical to the serial search for every worker count.
func (e *engine) bestSplit(lo, hi int, counts []int) split {
	parent := gini(counts, hi-lo)
	results := make([]split, len(e.splitAttrs))
	search := func(i int) {
		attr := e.splitAttrs[i]
		if e.data.Schema.Attrs[attr].Kind == dataset.Numeric {
			if e.mode == SplitSearchHist {
				results[i] = e.bestNumericSplitHist(lo, hi, attr, parent, counts)
			} else {
				results[i] = e.bestNumericSplitList(lo, hi, attr, parent, counts)
			}
		} else {
			results[i] = e.bestCategoricalSplit(lo, hi, attr, parent, counts)
		}
	}
	if hi-lo < parallelSplitMinRows || parallel.Workers(e.par) == 1 {
		for i := range e.splitAttrs {
			search(i)
		}
	} else {
		parallel.Do(len(e.splitAttrs), e.par, func(_ int, c parallel.Chunk) {
			for i := c.Lo; i < c.Hi; i++ {
				search(i)
			}
		})
	}
	best := split{}
	for _, s := range results {
		if s.valid && (!best.valid || s.gain > best.gain) {
			best = s
		}
	}
	return best
}

// bestNumericSplitList sweeps the node's presorted attribute-list segment:
// one linear pass over the rows in ascending value order, evaluating the
// gain at every cut between distinct consecutive values — the same
// candidate cuts, counts and float operations as the reference builder's
// per-node re-sort, without the sort.
func (e *engine) bestNumericSplitList(lo, hi, attr int, parent float64, counts []int) split {
	list := e.al.lists[attr][lo:hi]
	leftCounts := make([]int, e.k)
	rightCounts := append([]int(nil), counts...)
	n := hi - lo
	best := split{attr: attr}
	for i := 0; i < n-1; i++ {
		id := list[i]
		c := e.classOf(id)
		leftCounts[c]++
		rightCounts[c]--
		v, vn := e.data.Tuples[id][attr], e.data.Tuples[list[i+1]][attr]
		if v == vn {
			continue // not a valid cut point
		}
		nl := i + 1
		nr := n - nl
		if nl < e.cfg.MinLeaf || nr < e.cfg.MinLeaf {
			continue
		}
		w := parent - (float64(nl)*gini(leftCounts, nl)+float64(nr)*gini(rightCounts, nr))/float64(n)
		if !best.valid || w > best.gain {
			best.valid = true
			best.gain = w
			best.threshold = numericCut(v, vn)
		}
	}
	return best
}

// bestCategoricalSplit builds the attribute's AVC-set from the node's row
// segment and hands the sweep to the shared bestCategoricalFromAVC.
func (e *engine) bestCategoricalSplit(lo, hi, attr int, parent float64, counts []int) split {
	card := e.data.Schema.Attrs[attr].Cardinality()
	avc := make([][]int, card)
	totals := make([]int, card)
	for _, id := range e.al.rows[lo:hi] {
		t := e.data.Tuples[id]
		v := int(t[attr])
		if avc[v] == nil {
			avc[v] = make([]int, e.k)
		}
		avc[v][e.classOf(id)]++
		totals[v]++
	}
	return bestCategoricalFromAVC(attr, avc, totals, counts, hi-lo, e.k, parent, e.cfg.MinLeaf)
}

// partition realizes the split on the segment [lo, hi): rows are marked by
// the split predicate (the same predicate Tree.route applies), then the
// row list and — in exact mode — every numeric attribute list are
// stable-partitioned, which keeps each child's list segments sorted. It
// returns the realized left size.
func (e *engine) partition(lo, hi int, s split) int {
	rows := e.al.rows[lo:hi]
	numeric := e.data.Schema.Attrs[s.attr].Kind == dataset.Numeric
	nl := 0
	for _, id := range rows {
		t := e.data.Tuples[id]
		goLeft := false
		if numeric {
			goLeft = t[s.attr] <= s.threshold
		} else {
			v := int(t[s.attr])
			goLeft = v >= 0 && v < len(s.leftValues) && s.leftValues[v]
		}
		e.al.side[id] = goLeft
		if goLeft {
			nl++
		}
	}
	if nl == 0 || nl == hi-lo {
		return nl
	}
	stablePartition(rows, e.al.side, e.al.scratch, nl)
	for _, list := range e.al.lists {
		if list != nil {
			stablePartition(list[lo:hi], e.al.side, e.al.scratch, nl)
		}
	}
	return nl
}

// forEachAttr runs body once per listed attribute, fanning out over
// parallel workers. Each attribute is handled by exactly one worker, so
// bodies may write per-attribute slots without synchronization.
func forEachAttr(attrs []int, parallelism int, body func(attr int)) {
	parallel.Do(len(attrs), parallelism, func(_ int, c parallel.Chunk) {
		for _, a := range attrs[c.Lo:c.Hi] {
			body(a)
		}
	})
}
