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
	"math/rand"
	"regexp"
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
	rng      *rand.Rand
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
	g := &Generator{cfg: cfg, rng: rng}
	g.patterns = make([]pattern, cfg.NumPatterns)
	weights := make([]float64, cfg.NumPatterns)
	var prev []txn.Item
	for i := range g.patterns {
		size := poisson(rng, cfg.AvgPatternLen-1) + 1 // at least one item
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
	return g, nil
}

func (g *Generator) pickPattern() *pattern {
	u := g.rng.Float64()
	i := sort.SearchFloat64s(g.cumW, u)
	if i >= len(g.patterns) {
		i = len(g.patterns) - 1
	}
	return &g.patterns[i]
}

// corrupt returns the pattern's items after corruption: items are dropped
// one at a time while a uniform draw stays below the pattern's corruption
// level, per the published procedure. The result aliases scratch storage
// owned by the caller.
func (g *Generator) corrupt(p *pattern, scratch []txn.Item) []txn.Item {
	items := append(scratch[:0], p.items...)
	for len(items) > 0 && g.rng.Float64() < p.corruption {
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
	var deferred []txn.Item // pattern carried over to the next transaction
	scratch := make([]txn.Item, 0, 64)
	for len(d.Txns) < n {
		size := poisson(g.rng, g.cfg.AvgTxnLen-1) + 1
		t := make(txn.Transaction, 0, size+8)
		if len(deferred) > 0 {
			t = append(t, deferred...)
			deferred = nil
		}
		// Keep assigning (corrupted) patterns until the transaction is full.
		// If a pattern does not fit, it is added anyway in half the cases and
		// deferred to the next transaction otherwise — per the published
		// algorithm.
		for guard := 0; len(t) < size && guard < 8*size+16; guard++ {
			items := g.corrupt(g.pickPattern(), scratch)
			if len(items) == 0 {
				continue
			}
			if len(t)+len(items) <= size || g.rng.Intn(2) == 0 {
				t = append(t, items...)
			} else {
				deferred = append([]txn.Item(nil), items...)
				break
			}
		}
		if len(t) == 0 {
			continue
		}
		d.Txns = append(d.Txns, t.Normalize())
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

// poisson draws from a Poisson distribution with the given mean using
// Knuth's product method; adequate for the means (<=20) used here.
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
