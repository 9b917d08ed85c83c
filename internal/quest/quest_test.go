package quest

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"focus/internal/txn"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig(500)
	cfg.Seed = 42
	d1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Len() != d2.Len() {
		t.Fatalf("lengths differ: %d vs %d", d1.Len(), d2.Len())
	}
	for i := range d1.Txns {
		if len(d1.Txns[i]) != len(d2.Txns[i]) {
			t.Fatalf("txn %d lengths differ", i)
		}
		for j := range d1.Txns[i] {
			if d1.Txns[i][j] != d2.Txns[i][j] {
				t.Fatalf("txn %d item %d differs", i, j)
			}
		}
	}
}

func TestGenerateDiffersAcrossSeeds(t *testing.T) {
	a := DefaultConfig(200)
	a.Seed = 1
	b := DefaultConfig(200)
	b.Seed = 2
	da, _ := Generate(a)
	db, _ := Generate(b)
	same := da.Len() == db.Len()
	if same {
		for i := range da.Txns {
			if len(da.Txns[i]) != len(db.Txns[i]) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced structurally identical datasets (suspicious)")
	}
}

func TestGeneratedDataValidAndSized(t *testing.T) {
	cfg := DefaultConfig(2000)
	cfg.Seed = 7
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2000 {
		t.Fatalf("generated %d transactions, want 2000", d.Len())
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("generated dataset invalid: %v", err)
	}
	// Average transaction length should be in the right ballpark: the
	// pattern-packing procedure overshoots the Poisson target somewhat, but
	// an average of 20 should land well within [10, 35].
	if avg := d.AvgLen(); avg < 10 || avg > 35 {
		t.Errorf("average transaction length = %v, want around 20", avg)
	}
}

func TestPatternParametersChangeCharacteristics(t *testing.T) {
	// Same seed, different average pattern length: supports of top itemsets
	// must differ — this is the knob Figure 13 turns.
	base := DefaultConfig(1000)
	base.Seed = 11
	base.NumPatterns = 400
	alt := base
	alt.AvgPatternLen = 8
	d1, _ := Generate(base)
	d2, _ := Generate(alt)
	if d1.AvgLen() == d2.AvgLen() {
		t.Log("average lengths equal; checking item frequencies instead")
	}
	// Compare frequency of the most common item.
	top := func(d interface{ Count([]int32) int }) int {
		best := 0
		for it := 0; it < 1000; it++ {
			if c := d.Count([]int32{int32(it)}); c > best {
				best = c
			}
		}
		return best
	}
	if top(d1) == top(d2) {
		t.Error("pattern-length change left top item frequency identical (suspicious)")
	}
}

func TestGenerateNIncremental(t *testing.T) {
	cfg := DefaultConfig(100)
	cfg.Seed = 3
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d1 := g.GenerateN(100)
	d2 := g.GenerateN(50) // the Δ block of Section 7.1
	if d1.Len() != 100 || d2.Len() != 50 {
		t.Fatalf("sizes %d,%d want 100,50", d1.Len(), d2.Len())
	}
	if err := d2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigName(t *testing.T) {
	cfg := DefaultConfig(1_000_000)
	if got := cfg.Name(); got != "1M.20L.1K.4000pats.4patlen" {
		t.Errorf("Name = %q", got)
	}
	cfg.NumTxns = 500_000
	if got := cfg.Name(); got != "0.5M.20L.1K.4000pats.4patlen" {
		t.Errorf("Name = %q", got)
	}
}

func TestParseNameRoundTrip(t *testing.T) {
	for _, name := range []string{
		"1M.20L.1K.4000pats.4patlen",
		"0.75M.20L.1K.4000pats.4patlen",
		"0.5M.20L.1K.6000pats.5patlen",
	} {
		cfg, err := ParseName(name)
		if err != nil {
			t.Fatalf("ParseName(%q): %v", name, err)
		}
		if got := cfg.Name(); got != name {
			t.Errorf("round trip %q -> %q", name, got)
		}
	}
	if _, err := ParseName("garbage"); err == nil {
		t.Error("ParseName accepted garbage")
	}
}

func TestParseNameValues(t *testing.T) {
	cfg, err := ParseName("0.5M.20L.1K.4000pats.4patlen")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumTxns != 500000 || cfg.NumItems != 1000 || cfg.NumPatterns != 4000 ||
		cfg.AvgTxnLen != 20 || cfg.AvgPatternLen != 4 {
		t.Errorf("parsed config = %+v", cfg)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{NumTxns: -1, NumItems: 10, NumPatterns: 5, AvgTxnLen: 3, AvgPatternLen: 2},
		{NumTxns: 10, NumItems: 0, NumPatterns: 5, AvgTxnLen: 3, AvgPatternLen: 2},
		{NumTxns: 10, NumItems: 10, NumPatterns: 0, AvgTxnLen: 3, AvgPatternLen: 2},
		{NumTxns: 10, NumItems: 10, NumPatterns: 5, AvgTxnLen: 0, AvgPatternLen: 2},
		{NumTxns: 10, NumItems: 10, NumPatterns: 5, AvgTxnLen: 3, AvgPatternLen: 0},
	}
	for i, cfg := range bad {
		if _, err := NewGenerator(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	g, err := NewGenerator(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	_ = g
	// Directly exercise the sampler through generation statistics: Poisson
	// with mean 0 must return 0.
	if got := newPoisson(0).draw(g.rng); got != 0 {
		t.Errorf("poisson(0) = %d", got)
	}
	sum := 0
	const n = 20000
	for i := 0; i < n; i++ {
		sum += newPoisson(5).draw(g.rng)
	}
	mean := float64(sum) / n
	if math.Abs(mean-5) > 0.15 {
		t.Errorf("poisson(5) sample mean = %v", mean)
	}
}

// TestGenerateStreamDigest pins the generated bytes: each config's
// txn.Write output must hash to the recorded SHA-256, so any change to the
// generator's RNG calls, their order or its normalization shows here.
func TestGenerateStreamDigest(t *testing.T) {
	cfgOf := func(txns, items, pats int, tl, patlen float64, seed int64) Config {
		c := DefaultConfig(txns)
		c.NumItems, c.NumPatterns, c.AvgTxnLen, c.AvgPatternLen, c.Seed = items, pats, tl, patlen, seed
		return c
	}
	cases := []struct {
		name  string
		cfg   Config
		calls []int // GenerateN sizes on one generator; nil = Generate
		want  string
	}{
		{"defaults", DefaultConfig(3000), nil, "a8382bc43cd6f93964464724ed5a5196df53ff5e24bf334e19ff2349aa300f55"},
		{"qualify-patlen4", cfgOf(4000, 500, 1000, 20, 4, 1), nil, "b15d7f94a1ee476c2318c00c89623ad14b6f9b54c58dd7779f897738353fb2d8"},
		{"qualify-patlen5", cfgOf(4000, 500, 1000, 20, 5, 2), nil, "d4960334da6a9349f75f89d91c85e0f25c84de33d824a638d6730c8299972dff"},
		{"items100k", cfgOf(2000, 100_000, 1000, 20, 4, 3), nil, "e477b1fa970402cd3ad9a232b1fbbcea3a36ef2cfdc376252afaa7c88c1cf51b"},
		{"items5k", cfgOf(2000, 5000, 1000, 20, 4, 4), nil, "1ea1140ddbc6249f2d0217516e9f5a3e49d600a18d37be086e572b395615d74a"},
		{"items64-tl40", cfgOf(2000, 64, 200, 40, 4, 5), nil, "a3388f7a65f7ef085481df99dd454130e9f428e16d45542659cc73c2eb45da47"},
		{"pats1", cfgOf(2000, 1000, 1, 20, 4, 6), nil, "b83a7721fbbf93c02acb938ff6eb7b5a4d2b94b56fd67fe080fc291d697af440"},
		{"pats3", cfgOf(2000, 1000, 3, 20, 4, 7), nil, "55a4bb879361c331f15f086038dd1310f03cabfe45103d5a699f697a5d64f1f4"},
		{"generateN-twice", cfgOf(0, 500, 1000, 20, 5, 8), []int{1500, 1500}, "f9d9580c7eb185998cbd1f1dc212d2991ceedfd857d5be08ccfac3f55f81ac95"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := NewGenerator(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if tc.calls == nil {
				if err := g.Generate().Write(h); err != nil {
					t.Fatal(err)
				}
			}
			for _, n := range tc.calls {
				if err := g.GenerateN(n).Write(h); err != nil {
					t.Fatal(err)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}

// benchDataset keeps the benchmarked result reachable.
var benchDataset *txn.Dataset

// BenchmarkQuestGenerate generates one population of the qualify-batch
// lits pair: 40,000 transactions over 500 items and 1000 patterns of
// average length 4.
func BenchmarkQuestGenerate(b *testing.B) {
	cfg := DefaultConfig(40_000)
	cfg.NumItems, cfg.NumPatterns, cfg.Seed = 500, 1000, 1
	for b.Loop() {
		d, err := Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchDataset = d
	}
}
