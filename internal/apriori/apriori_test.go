package apriori

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"focus/internal/txn"
)

// tinyDataset has hand-checkable supports over items {0,1,2,3}:
//
//	{0,1}:   3 txns
//	{0,1,2}: 1 txn
//	{0}:     total 5, {1}: total 4, {2}: total 3, {3}: total 1
func tinyDataset() *txn.Dataset {
	d := txn.New(4)
	d.Add(
		txn.Transaction{0, 1},
		txn.Transaction{0, 1},
		txn.Transaction{0, 1, 2},
		txn.Transaction{0, 2},
		txn.Transaction{0, 3},
		txn.Transaction{1, 2},
	)
	return d
}

func TestMineTiny(t *testing.T) {
	// minSupport 0.5 => minCount 3 over 6 txns.
	fs, err := MineP(tinyDataset(), 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		NewItemset(0).Key():    5,
		NewItemset(1).Key():    4,
		NewItemset(2).Key():    3,
		NewItemset(0, 1).Key(): 3,
	}
	if fs.Len() != len(want) {
		t.Fatalf("mined %d itemsets %v, want %d", fs.Len(), fs.Itemsets, len(want))
	}
	for i, s := range fs.Itemsets {
		wc, ok := want[s.Key()]
		if !ok {
			t.Errorf("unexpected frequent itemset %v", s)
			continue
		}
		if fs.Counts[i] != wc {
			t.Errorf("count of %v = %d, want %d", s, fs.Counts[i], wc)
		}
	}
}

func TestMineLowerSupportFindsMore(t *testing.T) {
	// minSupport 1/6 admits everything with at least one occurrence.
	fs, err := MineP(tinyDataset(), 1.0/6, 1)
	if err != nil {
		t.Fatal(err)
	}
	// {0,1,2} occurs once and must be found.
	if fs.Lookup(NewItemset(0, 1, 2)) < 0 {
		t.Error("triple {0,1,2} not found at support 1/6")
	}
	if fs.Lookup(NewItemset(3)) < 0 {
		t.Error("singleton {3} not found at support 1/6")
	}
	// {1,3} never occurs.
	if fs.Lookup(NewItemset(1, 3)) >= 0 {
		t.Error("non-occurring itemset reported frequent")
	}
}

func TestMineValidation(t *testing.T) {
	if _, err := MineP(tinyDataset(), 0, 1); err == nil {
		t.Error("minSupport 0 accepted")
	}
	if _, err := MineP(tinyDataset(), 1.5, 1); err == nil {
		t.Error("minSupport > 1 accepted")
	}
	fs, err := MineP(txn.New(5), 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Len() != 0 {
		t.Error("empty dataset produced frequent itemsets")
	}
}

func randomDataset(rng *rand.Rand, nTxns, nItems, maxLen int) *txn.Dataset {
	d := txn.New(nItems)
	for i := 0; i < nTxns; i++ {
		l := 1 + rng.Intn(maxLen)
		tr := make(txn.Transaction, 0, l)
		for j := 0; j < l; j++ {
			tr = append(tr, txn.Item(rng.Intn(nItems)))
		}
		d.Add(tr.Normalize())
	}
	return d
}

// Property (downward closure): every subset of a frequent itemset obtained
// by dropping one item is also frequent, with support at least as large.
func TestDownwardClosureProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		d := randomDataset(rng, 60, 8, 5)
		fs, err := MineP(d, 0.2, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range fs.Itemsets {
			if len(s) < 2 {
				continue
			}
			for drop := range s {
				sub := make(Itemset, 0, len(s)-1)
				for j, it := range s {
					if j != drop {
						sub = append(sub, it)
					}
				}
				k := fs.Lookup(sub)
				if k < 0 {
					t.Fatalf("trial %d: subset %v of frequent %v missing", trial, sub, s)
				}
				if fs.Counts[k] < fs.Counts[i] {
					t.Fatalf("trial %d: support(%v)=%d < support(%v)=%d", trial, sub, fs.Counts[k], s, fs.Counts[i])
				}
			}
		}
	}
}

// Property: mined supports agree with direct counting.
func TestMinedSupportsMatchDirectCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		d := randomDataset(rng, 80, 10, 6)
		fs, err := MineP(d, 0.15, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range fs.Itemsets {
			if got := d.Count(s); got != fs.Counts[i] {
				t.Fatalf("trial %d: mined count of %v = %d, direct = %d", trial, s, fs.Counts[i], got)
			}
		}
	}
}

// Property: mining finds exactly the itemsets above threshold (verified
// against exhaustive enumeration over a small universe).
func TestMineCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randomDataset(rng, 50, 6, 4)
	const minSup = 0.2
	fs, err := MineP(d, minSup, 1)
	if err != nil {
		t.Fatal(err)
	}
	minCount := int(minSup*float64(d.Len()) + 0.999999)
	// Enumerate all 2^6-1 non-empty itemsets.
	for mask := 1; mask < 64; mask++ {
		var s Itemset
		for b := 0; b < 6; b++ {
			if mask&(1<<b) != 0 {
				s = append(s, txn.Item(b))
			}
		}
		c := d.Count(s)
		found := fs.Lookup(s) >= 0
		if c >= minCount && !found {
			t.Errorf("itemset %v with count %d >= %d not mined", s, c, minCount)
		}
		if c < minCount && found {
			t.Errorf("itemset %v with count %d < %d wrongly mined", s, c, minCount)
		}
	}
}

func TestCountItemsetsMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDataset(rng, 40, 12, 6)
		// Probe sets: random itemsets of sizes 0..3, including duplicates.
		var sets []Itemset
		sets = append(sets, Itemset{}) // empty itemset: contained everywhere
		for i := 0; i < 25; i++ {
			l := rng.Intn(3) + 1
			var s Itemset
			for j := 0; j < l; j++ {
				s = append(s, txn.Item(rng.Intn(12)))
			}
			sets = append(sets, NewItemset(s...))
		}
		sets = append(sets, sets[1]) // deliberate duplicate
		fast := CountItemsets(d, sets)
		slow := CountItemsetsBrute(d, sets)
		for i := range fast {
			if fast[i] != slow[i] {
				return false
			}
		}
		return fast[0] == d.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// ParseKey reconstructs an itemset from a key produced by Key.
func ParseKey(k string) Itemset {
	if len(k)%4 != 0 {
		panic(fmt.Sprintf("apriori: malformed itemset key of length %d", len(k)))
	}
	s := make(Itemset, len(k)/4)
	for i := range s {
		s[i] = txn.Item(binary.BigEndian.Uint32([]byte(k[4*i : 4*i+4])))
	}
	return s
}

func TestItemsetKeyRoundTrip(t *testing.T) {
	for _, s := range []Itemset{{}, {1}, {0, 5, 1000000}, {3, 4, 5, 6}} {
		back := ParseKey(s.Key())
		if !back.Equal(s) {
			t.Errorf("round trip of %v gave %v", s, back)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("ParseKey of malformed key did not panic")
		}
	}()
	ParseKey("abc")
}

func TestItemsetLess(t *testing.T) {
	cases := []struct {
		a, b Itemset
		want bool
	}{
		{Itemset{1}, Itemset{2}, true},
		{Itemset{1}, Itemset{1, 2}, true},
		{Itemset{1, 2}, Itemset{1}, false},
		{Itemset{1, 3}, Itemset{1, 2}, false},
		{Itemset{1, 2}, Itemset{1, 2}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("%v < %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestNewItemsetNormalizes(t *testing.T) {
	s := NewItemset(5, 1, 5, 3, 1)
	want := Itemset{1, 3, 5}
	if !s.Equal(want) {
		t.Errorf("NewItemset = %v, want %v", s, want)
	}
}

func TestItemsetString(t *testing.T) {
	if got := NewItemset(3, 1).String(); got != "{1 3}" {
		t.Errorf("String = %q", got)
	}
}

func TestFrequentSetSupport(t *testing.T) {
	fs, err := MineP(tinyDataset(), 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	i := fs.Lookup(NewItemset(0))
	if i < 0 {
		t.Fatal("{0} not frequent")
	}
	if got := fs.Support(i); got != 5.0/6 {
		t.Errorf("Support({0}) = %v, want %v", got, 5.0/6)
	}
}

func TestCloneIndependent(t *testing.T) {
	s := NewItemset(1, 2)
	c := s.Clone()
	c[0] = 9
	if s[0] != 1 {
		t.Error("Clone shares storage")
	}
}
