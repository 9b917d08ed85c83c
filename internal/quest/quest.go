// Package quest reimplements the IBM Quest synthetic market-basket data
// generator of Agrawal & Srikant (VLDB 1994, Section 4), which the paper uses
// for every lits-models experiment (Sections 6.1.1 and 7.1). The original
// binary is no longer distributed; this is a from-scratch implementation of
// the published algorithm with the same parameter surface, including the
// N.tlL.|I|I.NpPats.pPatlen dataset naming convention.
package quest

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"regexp"
	"slices"
	"sort"
	"strconv"

	"focus/internal/txn"
)

// Config parameterizes the generator. The zero value is not useful; start
// from DefaultConfig.
type Config struct {
	// NumTxns is |D|, the number of transactions (N).
	NumTxns int
	// AvgTxnLen is |T|, the average transaction size (tl).
	AvgTxnLen float64
	// NumItems is |I|, the size of the item universe (N in thousands in the
	// naming convention).
	NumItems int
	// NumPatterns is |L|, the number of maximal potentially large itemsets
	// (pats).
	NumPatterns int
	// AvgPatternLen is the average size of the potentially large itemsets
	// (patlen).
	AvgPatternLen float64
	// CorrelationLevel is the mean of the exponentially distributed fraction
	// of items a pattern shares with its predecessor. The published default
	// is 0.5.
	CorrelationLevel float64
	// CorruptionMean and CorruptionSD parameterize the per-pattern corruption
	// level (normally distributed, clamped to [0,1]). The published defaults
	// are mean 0.5 and variance 0.1 (sd ~0.316).
	CorruptionMean, CorruptionSD float64
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultConfig returns the parameter settings used throughout Section 6.1.1
// of the paper: |I|=1000 items, |T|=20, |L|=4000 patterns of average length
// 4, at a configurable number of transactions.
func DefaultConfig(numTxns int) Config {
	return Config{
		NumTxns:          numTxns,
		AvgTxnLen:        20,
		NumItems:         1000,
		NumPatterns:      4000,
		AvgPatternLen:    4,
		CorrelationLevel: 0.5,
		CorruptionMean:   0.5,
		CorruptionSD:     0.3162278, // sqrt(0.1)
	}
}

// Name renders the paper's naming convention for this configuration, e.g.
// "1M.20L.1K.4000pats.4patlen".
func (c Config) Name() string {
	return fmt.Sprintf("%s.%dL.%s.%dpats.%dpatlen",
		compactCount(c.NumTxns), int(c.AvgTxnLen+0.5),
		compactCount(c.NumItems), c.NumPatterns, int(c.AvgPatternLen+0.5))
}

func compactCount(n int) string {
	switch {
	// The paper writes fractional megacounts ("0.5M", "0.75M"), so prefer M
	// from half a million upward.
	case n >= 500_000 && n%10_000 == 0:
		v := float64(n) / 1e6
		return strconv.FormatFloat(v, 'g', -1, 64) + "M"
	case n >= 1000 && n%100 == 0:
		v := float64(n) / 1e3
		return strconv.FormatFloat(v, 'g', -1, 64) + "K"
	default:
		return strconv.Itoa(n)
	}
}

var nameRE = regexp.MustCompile(`^([0-9.]+)([MK]?)\.(\d+)L\.([0-9.]+)([MK]?)I?\.(\d+)pats\.(\d+)patlen$`)

// ParseName parses the paper's dataset naming convention, e.g.
// "1M.20L.1K.4000pats.4patlen" or "0.5M.20L.1K.4000pats.4patlen", into a
// Config with default correlation/corruption parameters.
func ParseName(name string) (Config, error) {
	m := nameRE.FindStringSubmatch(name)
	if m == nil {
		return Config{}, fmt.Errorf("quest: cannot parse dataset name %q", name)
	}
	parseCount := func(num, suffix string) (int, error) {
		v, err := strconv.ParseFloat(num, 64)
		if err != nil {
			return 0, err
		}
		switch suffix {
		case "M":
			v *= 1e6
		case "K":
			v *= 1e3
		}
		return int(v + 0.5), nil
	}
	n, err := parseCount(m[1], m[2])
	if err != nil {
		return Config{}, fmt.Errorf("quest: bad transaction count in %q: %w", name, err)
	}
	tl, err := strconv.Atoi(m[3])
	if err != nil {
		return Config{}, fmt.Errorf("quest: bad transaction length in %q: %w", name, err)
	}
	items, err := parseCount(m[4], m[5])
	if err != nil {
		return Config{}, fmt.Errorf("quest: bad item count in %q: %w", name, err)
	}
	pats, err := strconv.Atoi(m[6])
	if err != nil {
		return Config{}, fmt.Errorf("quest: bad pattern count in %q: %w", name, err)
	}
	plen, err := strconv.Atoi(m[7])
	if err != nil {
		return Config{}, fmt.Errorf("quest: bad pattern length in %q: %w", name, err)
	}
	cfg := DefaultConfig(n)
	cfg.AvgTxnLen = float64(tl)
	cfg.NumItems = items
	cfg.NumPatterns = pats
	cfg.AvgPatternLen = float64(plen)
	return cfg, nil
}

func (c Config) validate() error {
	switch {
	case c.NumTxns < 0:
		return fmt.Errorf("quest: NumTxns %d < 0", c.NumTxns)
	case c.NumItems <= 0:
		return fmt.Errorf("quest: NumItems %d <= 0", c.NumItems)
	case c.NumPatterns <= 0:
		return fmt.Errorf("quest: NumPatterns %d <= 0", c.NumPatterns)
	case c.AvgTxnLen <= 0:
		return fmt.Errorf("quest: AvgTxnLen %v <= 0", c.AvgTxnLen)
	case c.AvgPatternLen <= 0:
		return fmt.Errorf("quest: AvgPatternLen %v <= 0", c.AvgPatternLen)
	}
	return nil
}

// pattern is one maximal potentially large itemset with its selection weight
// and corruption level.
type pattern struct {
	items      []txn.Item
	corruption float64
}

// Generator holds the potential large itemsets and produces transactions.
// Two datasets generated from Generators with the same pattern seed share
// data characteristics; differing pattern parameters change them — exactly
// the knob the paper turns in Figure 13.
type Generator struct {
	cfg      Config
	patterns []pattern
	cumW     []float64 // cumulative normalized weights for pattern selection
	// guide[b] is the first index with cumW[i] >= b/(len(guide)-1): a
	// starting point for pickPattern's search that lands on or next to the
	// answer.
	guide  []int32
	txnLen poissonDist // transaction sizes, less one
	rng    *rand.Rand
	// seen is a bitmap of the item universe, all zero between calls, that
	// sorts and dedupes a transaction in normalize.
	seen []uint64
}

// NewGenerator builds the potential large itemsets per the published
// algorithm: pattern sizes are Poisson with the configured mean; successive
// patterns reuse an exponentially distributed fraction of their predecessor's
// items; selection weights are exponentially distributed and normalized;
// corruption levels are clamped normals.
func NewGenerator(cfg Config) (*Generator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &Generator{cfg: cfg, rng: rng, txnLen: newPoisson(cfg.AvgTxnLen - 1)}
	g.patterns = make([]pattern, cfg.NumPatterns)
	weights := make([]float64, cfg.NumPatterns)
	patLen := newPoisson(cfg.AvgPatternLen - 1)
	var prev []txn.Item
	for i := range g.patterns {
		size := patLen.draw(rng) + 1 // at least one item
		if size > cfg.NumItems {
			size = cfg.NumItems
		}
		items := make([]txn.Item, 0, size)
		seen := make(map[txn.Item]bool, size)
		// Reuse a fraction of the previous pattern's items to model
		// correlated "trends" (published correlation level 0.5).
		if len(prev) > 0 && cfg.CorrelationLevel > 0 {
			frac := rng.ExpFloat64() * cfg.CorrelationLevel
			if frac > 1 {
				frac = 1
			}
			reuse := int(frac*float64(size) + 0.5)
			if reuse > len(prev) {
				reuse = len(prev)
			}
			perm := rng.Perm(len(prev))
			for _, j := range perm[:reuse] {
				if !seen[prev[j]] {
					seen[prev[j]] = true
					items = append(items, prev[j])
				}
			}
		}
		for len(items) < size {
			it := txn.Item(rng.Intn(cfg.NumItems))
			if !seen[it] {
				seen[it] = true
				items = append(items, it)
			}
		}
		sort.Slice(items, func(a, b int) bool { return items[a] < items[b] })
		corr := rng.NormFloat64()*cfg.CorruptionSD + cfg.CorruptionMean
		if corr < 0 {
			corr = 0
		}
		if corr > 1 {
			corr = 1
		}
		g.patterns[i] = pattern{items: items, corruption: corr}
		weights[i] = rng.ExpFloat64()
		prev = items
	}
	// Normalize weights into a cumulative distribution for binary-search
	// selection.
	total := 0.0
	for _, w := range weights {
		total += w
	}
	g.cumW = make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		g.cumW[i] = acc
	}
	g.cumW[len(g.cumW)-1] = 1
	// One guide bucket per pattern, plus one for u*B rounding up to B.
	g.guide = make([]int32, len(g.cumW)+1)
	i := 0
	for b := range g.guide {
		lo := float64(b) / float64(len(g.cumW))
		for i < len(g.cumW)-1 && g.cumW[i] < lo {
			i++
		}
		g.guide[b] = int32(i)
	}
	g.seen = make([]uint64, (cfg.NumItems+63)/64)
	return g, nil
}

// pickPattern draws a pattern by its weight: the first index whose
// cumulative weight reaches a uniform draw, exactly what
// sort.SearchFloat64s(g.cumW, u) returns. The search starts at the draw's
// guide bucket and walks down, then up, to that index, so its result does
// not depend on what the guide holds.
func (g *Generator) pickPattern() *pattern {
	u := g.rng.Float64()
	i := int(g.guide[int(u*float64(len(g.cumW)))])
	for i > 0 && g.cumW[i-1] >= u {
		i--
	}
	for i < len(g.cumW) && g.cumW[i] < u {
		i++
	}
	if i >= len(g.patterns) {
		i = len(g.patterns) - 1
	}
	return &g.patterns[i]
}

// normalize sorts t and removes duplicate items in place, as
// Transaction.Normalize does. Where the universe's bitmap has at most four
// words per item of t, it sets t's bits and reads them back in order;
// otherwise sweeping the bitmap would cost more than sorting t.
func (g *Generator) normalize(t txn.Transaction) txn.Transaction {
	if len(g.seen) > 4*len(t) {
		return t.Normalize()
	}
	for _, x := range t {
		g.seen[x>>6] |= 1 << (x & 63)
	}
	out := t[:0]
	for w, bitsW := range g.seen {
		if bitsW == 0 {
			continue
		}
		for ; bitsW != 0; bitsW &= bitsW - 1 {
			out = append(out, txn.Item(w<<6+bits.TrailingZeros64(bitsW)))
		}
		g.seen[w] = 0
	}
	return out
}

// corrupt drops items from a copy of a pattern's items one at a time while
// a uniform draw stays below the pattern's corruption level, per the
// published procedure, and returns the shortened slice.
func (g *Generator) corrupt(items []txn.Item, corruption float64) []txn.Item {
	for len(items) > 0 && g.rng.Float64() < corruption {
		j := g.rng.Intn(len(items))
		items[j] = items[len(items)-1]
		items = items[:len(items)-1]
	}
	return items
}

// Generate produces the configured number of transactions.
func (g *Generator) Generate() *txn.Dataset {
	return g.GenerateN(g.cfg.NumTxns)
}

// GenerateN produces n transactions (useful for the incremental ∆ blocks of
// Section 7.1 without re-deriving the pattern pool).
func (g *Generator) GenerateN(n int) *txn.Dataset {
	d := txn.New(g.cfg.NumItems)
	d.Txns = make([]txn.Transaction, 0, n)
	var (
		t        txn.Transaction // the transaction being assembled
		deferred []txn.Item      // pattern carried over to the next transaction
	)
	for len(d.Txns) < n {
		size := g.txnLen.draw(g.rng) + 1
		t = append(t[:0], deferred...)
		deferred = deferred[:0]
		// Keep assigning (corrupted) patterns until the transaction is full.
		// If a pattern does not fit, it is added anyway in half the cases and
		// deferred to the next transaction otherwise — per the published
		// algorithm. Each pattern is copied onto t's tail and corrupted there.
		for guard := 0; len(t) < size && guard < 8*size+16; guard++ {
			p := g.pickPattern()
			base := len(t)
			t = append(t, p.items...)
			items := g.corrupt(t[base:], p.corruption)
			t = t[:base+len(items)]
			if len(items) == 0 {
				continue
			}
			if len(t) > size && g.rng.Intn(2) != 0 {
				deferred = append(deferred, items...)
				t = t[:base]
				break
			}
		}
		if len(t) == 0 {
			continue
		}
		// An exact-size copy per transaction: a dataset sharing only some
		// of them (a resample) keeps no others alive.
		d.Txns = append(d.Txns, slices.Clone(g.normalize(t)))
	}
	return d
}

// Generate is a convenience wrapper building a generator and producing its
// dataset in one call.
func Generate(cfg Config) (*txn.Dataset, error) {
	g, err := NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	return g.Generate(), nil
}

// poissonDist is a Poisson distribution drawn by Knuth's product method,
// adequate for the means (<=20) used here. It holds e^-mean so that each
// draw need not recompute it.
type poissonDist struct {
	mean, expNeg float64
}

func newPoisson(mean float64) poissonDist {
	return poissonDist{mean: mean, expNeg: math.Exp(-mean)}
}

func (d poissonDist) draw(rng *rand.Rand) int {
	if d.mean <= 0 {
		return 0
	}
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= d.expNeg {
			return k
		}
		k++
	}
}
