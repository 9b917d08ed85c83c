// Package classgen reimplements the IBM synthetic classification data
// generator of Agrawal, Imielinski & Swami ("Database Mining: A Performance
// Perspective", TKDE 1993), which the paper uses for every dt-models
// experiment (Sections 6.1.2 and 7.2). Tuples describe a person with nine
// attributes; ten published classification functions assign each person to
// Group A or Group B. The paper's experiments use functions F1–F4; all ten
// are provided.
package classgen

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"

	"focus/internal/dataset"
)

// Attribute indices within a generated tuple, in schema order.
const (
	AttrSalary = iota
	AttrCommission
	AttrAge
	AttrElevel
	AttrCar
	AttrZipcode
	AttrHValue
	AttrHYears
	AttrLoan
	AttrGroup // class label: 0 = Group A, 1 = Group B
	numAttrs
)

// Group labels.
const (
	GroupA = 0
	GroupB = 1
)

// Schema returns the nine-attribute person schema plus the group label, as
// published: salary, commission, age, loan and house value are numeric;
// education level, make of car and zipcode are categorical.
func Schema() *dataset.Schema {
	elevels := []string{"0", "1", "2", "3", "4"}
	cars := make([]string, 20)
	for i := range cars {
		cars[i] = fmt.Sprintf("car%d", i+1)
	}
	zips := make([]string, 9)
	for i := range zips {
		zips[i] = fmt.Sprintf("zip%d", i+1)
	}
	return dataset.NewClassSchema(AttrGroup,
		dataset.Attribute{Name: "salary", Kind: dataset.Numeric, Min: 20000, Max: 150000},
		dataset.Attribute{Name: "commission", Kind: dataset.Numeric, Min: 0, Max: 75000},
		dataset.Attribute{Name: "age", Kind: dataset.Numeric, Min: 20, Max: 80},
		dataset.Attribute{Name: "elevel", Kind: dataset.Categorical, Values: elevels},
		dataset.Attribute{Name: "car", Kind: dataset.Categorical, Values: cars},
		dataset.Attribute{Name: "zipcode", Kind: dataset.Categorical, Values: zips},
		dataset.Attribute{Name: "hvalue", Kind: dataset.Numeric, Min: 0, Max: 1350000},
		dataset.Attribute{Name: "hyears", Kind: dataset.Numeric, Min: 1, Max: 30},
		dataset.Attribute{Name: "loan", Kind: dataset.Numeric, Min: 0, Max: 500000},
		dataset.Attribute{Name: "group", Kind: dataset.Categorical, Values: []string{"A", "B"}},
	)
}

// Function is one of the published classification functions F1..F10,
// mapping a person tuple to GroupA or GroupB.
type Function int

// The ten published classification functions.
const (
	F1 Function = 1 + iota
	F2
	F3
	F4
	F5
	F6
	F7
	F8
	F9
	F10
)

// String returns "F1".."F10".
func (f Function) String() string { return fmt.Sprintf("F%d", int(f)) }

// Valid reports whether f is one of the ten published functions.
func (f Function) Valid() bool { return f >= F1 && f <= F10 }

// Classify applies the function's published predicate to tuple t and returns
// GroupA or GroupB. The predicates follow the restatement in the SLIQ and
// SPRINT papers, which the paper's experimental section builds on.
func (f Function) Classify(t dataset.Tuple) int {
	salary := t[AttrSalary]
	commission := t[AttrCommission]
	age := t[AttrAge]
	elevel := int(t[AttrElevel])
	loan := t[AttrLoan]
	hvalue := t[AttrHValue]
	hyears := t[AttrHYears]

	groupA := false
	switch f {
	case F1:
		groupA = age < 40 || age >= 60
	case F2:
		switch {
		case age < 40:
			groupA = 50000 <= salary && salary <= 100000
		case age < 60:
			groupA = 75000 <= salary && salary <= 125000
		default:
			groupA = 25000 <= salary && salary <= 75000
		}
	case F3:
		switch {
		case age < 40:
			groupA = elevel == 0 || elevel == 1
		case age < 60:
			groupA = 1 <= elevel && elevel <= 3
		default:
			groupA = 2 <= elevel && elevel <= 4
		}
	case F4:
		switch {
		case age < 40:
			if elevel <= 1 {
				groupA = 25000 <= salary && salary <= 75000
			} else {
				groupA = 50000 <= salary && salary <= 100000
			}
		case age < 60:
			if 1 <= elevel && elevel <= 3 {
				groupA = 50000 <= salary && salary <= 100000
			} else {
				groupA = 75000 <= salary && salary <= 125000
			}
		default:
			if 2 <= elevel && elevel <= 4 {
				groupA = 50000 <= salary && salary <= 100000
			} else {
				groupA = 25000 <= salary && salary <= 75000
			}
		}
	case F5:
		switch {
		case age < 40:
			if 50000 <= salary && salary <= 100000 {
				groupA = 100000 <= loan && loan <= 300000
			} else {
				groupA = 200000 <= loan && loan <= 400000
			}
		case age < 60:
			if 75000 <= salary && salary <= 125000 {
				groupA = 200000 <= loan && loan <= 400000
			} else {
				groupA = 300000 <= loan && loan <= 500000
			}
		default:
			if 25000 <= salary && salary <= 75000 {
				groupA = 300000 <= loan && loan <= 500000
			} else {
				groupA = 100000 <= loan && loan <= 300000
			}
		}
	case F6:
		total := salary + commission
		switch {
		case age < 40:
			groupA = 50000 <= total && total <= 100000
		case age < 60:
			groupA = 75000 <= total && total <= 125000
		default:
			groupA = 25000 <= total && total <= 75000
		}
	case F7:
		groupA = 0.67*(salary+commission)-0.2*loan-20000 > 0
	case F8:
		groupA = 0.67*(salary+commission)-5000*float64(elevel)-20000 > 0
	case F9:
		groupA = 0.67*(salary+commission)-5000*float64(elevel)-0.2*loan-10000 > 0
	case F10:
		hequity := 0.0
		if hyears >= 20 {
			hequity = hvalue * (hyears - 20) / 10
		}
		groupA = 0.67*(salary+commission)-5000*float64(elevel)+0.2*hequity-10000 > 0
	default:
		panic(fmt.Sprintf("classgen: unknown function %d", int(f)))
	}
	if groupA {
		return GroupA
	}
	return GroupB
}

// Config parameterizes generation.
type Config struct {
	// NumTuples is |D|.
	NumTuples int
	// Function selects the classification function F1..F10.
	Function Function
	// NoiseLevel is the probability that a tuple's class label is flipped,
	// modelling the perturbation factor of the original generator. The
	// paper's experiments use noiseless data; default 0.
	NoiseLevel float64
	// Seed makes generation deterministic.
	Seed int64
}

// Name renders the paper's naming convention, e.g. "1M.F1".
func (c Config) Name() string {
	return fmt.Sprintf("%s.%s", compactCount(c.NumTuples), c.Function)
}

func compactCount(n int) string {
	switch {
	// The paper writes fractional megacounts ("0.5M", "0.75M"), so prefer M
	// from half a million upward.
	case n >= 500_000 && n%10_000 == 0:
		return strconv.FormatFloat(float64(n)/1e6, 'g', -1, 64) + "M"
	case n >= 1000 && n%100 == 0:
		return strconv.FormatFloat(float64(n)/1e3, 'g', -1, 64) + "K"
	default:
		return strconv.Itoa(n)
	}
}

var nameRE = regexp.MustCompile(`^([0-9.]+)([MK]?)\.F(\d+)$`)

// ParseName parses names like "1M.F1" or "0.5M.F3" into a Config.
func ParseName(name string) (Config, error) {
	m := nameRE.FindStringSubmatch(name)
	if m == nil {
		return Config{}, fmt.Errorf("classgen: cannot parse dataset name %q", name)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		return Config{}, fmt.Errorf("classgen: bad tuple count in %q: %w", name, err)
	}
	switch m[2] {
	case "M":
		v *= 1e6
	case "K":
		v *= 1e3
	}
	fn, err := strconv.Atoi(m[3])
	if err != nil || !Function(fn).Valid() {
		return Config{}, fmt.Errorf("classgen: bad function in %q", name)
	}
	return Config{NumTuples: int(v + 0.5), Function: Function(fn)}, nil
}

// Generate produces a classification dataset per the published attribute
// distributions: salary uniform in [20000,150000]; commission 0 when salary
// >= 75000 and uniform in [10000,75000] otherwise; age uniform in [20,80];
// elevel uniform over 5 levels; car uniform over 20 makes; zipcode uniform
// over 9 codes; hvalue uniform in [0.5k,1.5k]*100000 with k determined by
// zipcode; hyears uniform in [1,30]; loan uniform in [0,500000].
func Generate(cfg Config) (*dataset.Dataset, error) {
	if cfg.NumTuples < 0 {
		return nil, fmt.Errorf("classgen: NumTuples %d < 0", cfg.NumTuples)
	}
	if !cfg.Function.Valid() {
		return nil, fmt.Errorf("classgen: invalid function F%d", int(cfg.Function))
	}
	if cfg.NoiseLevel < 0 || cfg.NoiseLevel > 1 {
		return nil, fmt.Errorf("classgen: noise level %v outside [0,1]", cfg.NoiseLevel)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := dataset.New(Schema())
	d.Tuples = make([]dataset.Tuple, 0, cfg.NumTuples)
	// Tuples are carved from one block, each clipped to its own attributes.
	block := make([]float64, cfg.NumTuples*numAttrs)
	for i := 0; i < cfg.NumTuples; i++ {
		t := dataset.Tuple(block[i*numAttrs : (i+1)*numAttrs : (i+1)*numAttrs])
		t[AttrSalary] = uniform(rng, 20000, 150000)
		if t[AttrSalary] >= 75000 {
			t[AttrCommission] = 0
		} else {
			t[AttrCommission] = uniform(rng, 10000, 75000)
		}
		t[AttrAge] = uniform(rng, 20, 80)
		t[AttrElevel] = float64(rng.Intn(5))
		t[AttrCar] = float64(rng.Intn(20))
		zip := rng.Intn(9)
		t[AttrZipcode] = float64(zip)
		k := float64(zip + 1)
		t[AttrHValue] = uniform(rng, 0.5*k*100000, 1.5*k*100000)
		t[AttrHYears] = uniform(rng, 1, 30)
		t[AttrLoan] = uniform(rng, 0, 500000)
		class := cfg.Function.Classify(t)
		if cfg.NoiseLevel > 0 && rng.Float64() < cfg.NoiseLevel {
			class = 1 - class
		}
		t[AttrGroup] = float64(class)
		d.Tuples = append(d.Tuples, t)
	}
	return d, nil
}

func uniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo + rng.Float64()*(hi-lo)
}
