package dtree

import (
	"slices"

	"focus/internal/parallel"
)

// This file is the induction engine behind BuildP and Builder.Build: the
// per-node split search over the weighted units of attrlist.go — numeric
// attributes swept over every cut of their packed presorted lists
// (bit-identical to the re-sorting reference builder of the tests),
// categorical ones through weighted AVC-sets — with the attributes
// searched on parallel workers and the winners merged in fixed attribute
// order so the tree is independent of the worker count. A split is realized from the unit columns alone: a
// numeric split by position in its winning list, a categorical one by
// code; no float value is read to partition.

// parallelSplitMinRows gates the parallel attribute search: nodes with
// fewer rows search serially, since goroutine fan-out costs more than the
// sweep itself. The cutoff is safe for determinism — serial and parallel
// searches produce the identical winner by construction (per-attribute
// results merged in attribute order).
const parallelSplitMinRows = 2048

// grow builds the subtree over the unit segment [lo, hi). The stopping
// rules, split selection and realized-MinLeaf guard mirror the reference
// builder exactly, on weighted sizes.
func (b *Builder) grow(lo, hi, depth int) *Node {
	counts := b.counts
	clear(counts)
	n := 0
	for _, u := range b.rows[lo:hi] {
		w := int(b.weight[u])
		counts[b.class[u]] += w
		n += w
	}
	if depth >= b.cfg.MaxDepth || n < 2*b.cfg.MinLeaf || pure(counts) {
		return b.leaf(hi, counts)
	}
	best := b.bestSplit(lo, hi, n, counts)
	if !best.valid || best.gain < b.cfg.MinGain {
		return b.leaf(hi, counts)
	}
	node := &Node{Attr: best.attr, Threshold: best.threshold, LeafID: -1}
	if b.codes[best.attr] != nil {
		node.LeftValues = best.leftValues(len(b.attr[best.attr].totals))
	}
	nl, ul := b.partition(lo, hi, best, node.LeftValues)
	if nl < b.cfg.MinLeaf || n-nl < b.cfg.MinLeaf {
		return b.leaf(hi, counts)
	}
	node.Left = b.grow(lo, lo+ul, depth+1)
	node.Right = b.grow(lo+ul, hi, depth+1)
	return node
}

// leaf closes the segment ending at hi as the next leaf in DFS order —
// the order NewTree numbers leaves in.
func (b *Builder) leaf(hi int, counts []int) *Node {
	n := &Node{LeafID: len(b.leaves), ClassCounts: slices.Clone(counts)}
	b.leaves = append(b.leaves, n)
	b.leafEnd = append(b.leafEnd, int32(hi))
	return n
}

// bestSplit searches every non-class attribute for the node's best split.
// Attributes are independent, so large nodes search them on parallel
// workers writing per-attribute result slots; the merge then walks the
// slots in ascending attribute order applying the serial loop's exact rule
// (strictly greater gain wins, ties keep the earlier attribute), so the
// winner is bit-identical to the serial search for every worker count.
func (b *Builder) bestSplit(lo, hi, n int, counts []int) split {
	parent := gini(counts, n)
	if hi-lo < parallelSplitMinRows || parallel.Workers(b.par) == 1 {
		for i, a := range b.splitAttrs {
			b.results[i] = b.search(a, lo, hi, n, parent, counts)
		}
	} else {
		parallel.Do(len(b.splitAttrs), b.par, func(_ int, c parallel.Chunk) {
			for i := c.Lo; i < c.Hi; i++ {
				b.results[i] = b.search(b.splitAttrs[i], lo, hi, n, parent, counts)
			}
		})
	}
	best := split{}
	for _, s := range b.results {
		if s.valid && (!best.valid || s.gain > best.gain) {
			best = s
		}
	}
	return best
}

// search finds attribute a's best split of the node.
func (b *Builder) search(a, lo, hi, n int, parent float64, counts []int) split {
	if b.codes[a] != nil {
		return b.bestCategoricalSplit(a, lo, hi, n, parent, counts)
	}
	return b.bestNumericSplitList(a, lo, hi, n, parent, counts)
}

// bestNumericSplitList sweeps the node's presorted attribute-list segment:
// one linear pass in ascending rank order, evaluating the gain at every
// cut between distinct consecutive ranks — the same candidate cuts,
// weighted counts and float operations as the reference builder's per-node
// re-sort, without the sort. The cut is kept as a list position; the
// threshold is computed once, from the two values either side of it.
func (b *Builder) bestNumericSplitList(a, lo, hi, n int, parent float64, counts []int) split {
	list := b.lists[a][lo:hi]
	sc := &b.attr[a]
	left, right := sc.left, sc.right
	clear(left)
	copy(right, counts)
	minLeaf := b.cfg.MinLeaf
	best := split{attr: a}
	nl := 0
	for i := 0; i < len(list)-1; i++ {
		e := list[i]
		u := uint32(e)
		c, w := b.class[u], int(b.weight[u])
		left[c] += w
		right[c] -= w
		nl += w
		if e>>32 == list[i+1]>>32 {
			continue // equal values: not a valid cut point
		}
		nr := n - nl
		if nl < minLeaf || nr < minLeaf {
			continue
		}
		g := parent - (float64(nl)*gini(left, nl)+float64(nr)*gini(right, nr))/float64(n)
		if !best.valid || g > best.gain {
			best.valid = true
			best.gain = g
			best.pos = i + 1
		}
	}
	if best.valid {
		best.threshold = numericCut(b.value(list[best.pos-1], a), b.value(list[best.pos], a))
	}
	return best
}

// bestCategoricalSplit builds the attribute's weighted AVC-set from the
// node's unit segment and hands the sweep to the shared
// bestCategoricalFromAVC.
func (b *Builder) bestCategoricalSplit(a, lo, hi, n int, parent float64, counts []int) split {
	sc := &b.attr[a]
	clear(sc.avc)
	clear(sc.totals)
	codes := b.codes[a]
	for _, u := range b.rows[lo:hi] {
		v, w := int(codes[u]), int(b.weight[u])
		sc.avc[v*b.k+int(b.class[u])] += w
		sc.totals[v] += w
	}
	return bestCategoricalFromAVC(a, sc, counts, n, b.k, parent, b.cfg.MinLeaf)
}

// partition realizes the split on the segment [lo, hi) from the unit
// columns: a numeric split sends the first s.pos entries of its list left
// — the cut the sweep counted, which numericCut's threshold routes
// identically — a categorical split the units whose code is in lv. The
// row list and every other numeric list are then stable-partitioned,
// which keeps each child's list segments sorted. It returns the realized
// left weight and unit count.
func (b *Builder) partition(lo, hi int, s split, lv []bool) (nl, ul int) {
	rows := b.rows[lo:hi]
	if lv != nil {
		codes := b.codes[s.attr]
		for _, u := range rows {
			left := lv[codes[u]]
			b.side[u] = left
			if left {
				nl += int(b.weight[u])
				ul++
			}
		}
	} else {
		for i, e := range b.lists[s.attr][lo:hi] {
			u := uint32(e)
			left := i < s.pos
			b.side[u] = left
			if left {
				nl += int(b.weight[u])
			}
		}
		ul = s.pos
	}
	stablePartition(rows, b.side, b.scratch32, ul)
	for _, a := range b.numeric {
		if a != s.attr {
			stablePartition(b.lists[a][lo:hi], b.side, b.scratch64, ul)
		}
	}
	return nl, ul
}

// rootAttrs builds every numeric attribute's root list, one attribute per
// parallel worker.
func (b *Builder) rootAttrs() {
	if parallel.Workers(b.par) == 1 {
		for _, a := range b.numeric {
			b.listRoot(a)
		}
		return
	}
	forEachAttr(b.numeric, b.par, b.listRoot)
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
