package apriori

import (
	"math"
	"math/rand"
	"testing"
)

func TestRulesTiny(t *testing.T) {
	// tinyDataset supports: {0}:5/6, {1}:4/6, {0,1}:3/6.
	fs, err := MineP(tinyDataset(), 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := fs.Rules(0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Expected rules from {0,1}: 0=>1 conf (3/6)/(5/6)=0.6; 1=>0 conf
	// (3/6)/(4/6)=0.75. Both pass 0.5.
	if len(rules) != 2 {
		t.Fatalf("got %d rules: %v", len(rules), rules)
	}
	// Ordered by confidence: 1=>0 first.
	if !rules[0].Antecedent.Equal(Itemset{1}) || !rules[0].Consequent.Equal(Itemset{0}) {
		t.Errorf("top rule = %v", rules[0])
	}
	if math.Abs(rules[0].Confidence-0.75) > 1e-12 {
		t.Errorf("confidence = %v, want 0.75", rules[0].Confidence)
	}
	if math.Abs(rules[0].Support-0.5) > 1e-12 {
		t.Errorf("support = %v, want 0.5", rules[0].Support)
	}
	// Lift of 1=>0: 0.75 / (5/6) = 0.9.
	if math.Abs(rules[0].Lift-0.9) > 1e-12 {
		t.Errorf("lift = %v, want 0.9", rules[0].Lift)
	}
	// Raising the bar drops the weaker rule.
	strict, err := fs.Rules(0.7)
	if err != nil {
		t.Fatal(err)
	}
	if len(strict) != 1 {
		t.Fatalf("at conf 0.7 got %d rules", len(strict))
	}
}

func TestRulesValidation(t *testing.T) {
	fs, _ := MineP(tinyDataset(), 0.5, 1)
	if _, err := fs.Rules(-0.1); err == nil {
		t.Error("negative confidence accepted")
	}
	if _, err := fs.Rules(1.5); err == nil {
		t.Error("confidence > 1 accepted")
	}
}

// Property: every generated rule's stated support and confidence agree with
// direct counting, and every rule meets the threshold.
func TestRulesCorrectnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		d := randomDataset(rng, 80, 8, 5)
		fs, err := MineP(d, 0.15, 1)
		if err != nil {
			t.Fatal(err)
		}
		const minConf = 0.6
		rules, err := fs.Rules(minConf)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rules {
			if r.Confidence < minConf {
				t.Fatalf("rule %v below threshold", r)
			}
			union := NewItemset(append(append(Itemset{}, r.Antecedent...), r.Consequent...)...)
			if len(union) != len(r.Antecedent)+len(r.Consequent) {
				t.Fatalf("rule %v has overlapping sides", r)
			}
			supU := float64(d.Count(union)) / float64(d.Len())
			supA := float64(d.Count(r.Antecedent)) / float64(d.Len())
			if math.Abs(r.Support-supU) > 1e-12 {
				t.Fatalf("rule %v support mismatch: %v vs %v", r, r.Support, supU)
			}
			if math.Abs(r.Confidence-supU/supA) > 1e-12 {
				t.Fatalf("rule %v confidence mismatch", r)
			}
		}
	}
}

// Property: rule generation is complete — every qualifying (antecedent,
// consequent) split of every frequent itemset appears.
func TestRulesCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	d := randomDataset(rng, 60, 6, 4)
	fs, err := MineP(d, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	const minConf = 0.5
	rules, err := fs.Rules(minConf)
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[string]bool, len(rules))
	for _, r := range rules {
		have[r.Antecedent.Key()+"|"+r.Consequent.Key()] = true
	}
	for i, z := range fs.Itemsets {
		if len(z) < 2 {
			continue
		}
		supZ := fs.Support(i)
		// Enumerate all non-trivial splits of z.
		for mask := 1; mask < (1<<len(z))-1; mask++ {
			var ante, cons Itemset
			for b, it := range z {
				if mask&(1<<b) != 0 {
					ante = append(ante, it)
				} else {
					cons = append(cons, it)
				}
			}
			supA := float64(d.Count(ante)) / float64(d.Len())
			if supA == 0 {
				continue
			}
			if supZ/supA >= minConf && !have[Itemset(ante).Key()+"|"+Itemset(cons).Key()] {
				t.Fatalf("missing rule %v => %v (conf %v)", ante, cons, supZ/supA)
			}
		}
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{Antecedent: Itemset{1}, Consequent: Itemset{2}, Support: 0.1, Confidence: 0.8}
	if got := r.String(); got != "{1} => {2} (sup 0.100, conf 0.800)" {
		t.Errorf("String = %q", got)
	}
}
