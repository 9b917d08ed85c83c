package dtree

// This file implements the pre-binned histogram split search
// (SplitSearchHist): quantile bin edges are computed once at the root from
// each numeric attribute's sorted sample values, every unit is assigned
// its bin id once, and the per-node numeric search reduces to one pass
// building a weighted bin-by-class histogram plus a sweep over bin
// boundaries. Candidate cuts
// are restricted to bin edges — each edge is an actual data value, so the
// partition a chosen threshold realizes matches the swept histogram counts
// exactly.

// defaultHistBins is the quantile bin count selected by HistBins = 0.
const defaultHistBins = 64

// maxHistBins bounds HistBins so bin ids fit in uint16.
const maxHistBins = 65535

// binRoot computes attribute a's quantile edges over the sample — the
// sorted multiset of its drawn values, each unit's value repeated by its
// weight — and bins every unit. The ranked order walks the units in
// ascending value, so a unit's bin, the smallest edge at or above its
// value, is found by a forward scan instead of a binary search.
func (b *Builder) binRoot(a int) {
	sc := &b.attr[a]
	vals := sc.vals[:0]
	for _, e := range b.r.order[a] {
		if s := b.slot[uint32(e)]; s > 0 {
			v := b.r.data.Tuples[uint32(e)][a]
			for w := b.weight[s-1]; w > 0; w-- {
				vals = append(vals, v)
			}
		}
	}
	sc.vals = vals
	edges := quantileEdges(vals, b.cfg.HistBins)
	bins := resize(b.bins[a], len(b.row))
	j := 0
	for _, e := range b.r.order[a] {
		if s := b.slot[uint32(e)]; s > 0 {
			for b.r.data.Tuples[uint32(e)][a] > edges[j] {
				j++
			}
			bins[s-1] = uint16(j)
		}
	}
	b.edges[a], b.bins[a] = edges, bins
}

// quantileEdges picks at most b ascending distinct edge values from the
// sorted values s, at evenly spaced ranks, always including the maximum so
// the edges cover every value. Attributes with fewer distinct values than
// bins keep every distinct value — the histogram search then sees the
// exact candidate cut set.
func quantileEdges(s []float64, b int) []float64 {
	n := len(s)
	edges := make([]float64, 0, b)
	for j := 0; j < b; j++ {
		idx := (j+1)*n/b - 1
		if idx < 0 {
			idx = 0 // fewer values than bins: early ranks collapse onto the minimum
		}
		v := s[idx]
		if v == 0 {
			// -0 and +0 are one value: the edge is +0 whichever of them
			// the sort put at idx.
			v = 0
		}
		if len(edges) == 0 || v > edges[len(edges)-1] {
			edges = append(edges, v)
		}
	}
	return edges
}

// bestNumericSplitHist builds the node's weighted bin-by-class histogram
// in one pass over the unit segment and sweeps the bin boundaries,
// evaluating the gain with the same float operations as the exact sweep.
// The returned threshold is the winning bin's upper edge — an actual data
// value — so routing value <= threshold realizes exactly the swept counts,
// as the units binned at or below the winning bin do.
func (b *Builder) bestNumericSplitHist(a, lo, hi, n int, parent float64, counts []int) split {
	edges := b.edges[a]
	nb := len(edges)
	best := split{attr: a}
	if nb < 2 {
		return best // single distinct value: no cut exists
	}
	k := b.k
	sc := &b.attr[a]
	h := resize(sc.hist, nb*k)
	clear(h)
	sc.hist = h
	bins := b.bins[a]
	for _, u := range b.rows[lo:hi] {
		h[int(bins[u])*k+int(b.class[u])] += int(b.weight[u])
	}
	left, right := sc.left, sc.right
	clear(left)
	copy(right, counts)
	minLeaf := b.cfg.MinLeaf
	nl := 0
	for j := 0; j < nb-1; j++ {
		for c, cc := range h[j*k : (j+1)*k] {
			left[c] += cc
			right[c] -= cc
			nl += cc
		}
		nr := n - nl
		if nl < minLeaf || nr < minLeaf {
			continue
		}
		g := parent - (float64(nl)*gini(left, nl)+float64(nr)*gini(right, nr))/float64(n)
		if !best.valid || g > best.gain {
			best.valid = true
			best.gain = g
			best.threshold = edges[j]
			best.pos = j
		}
	}
	return best
}
