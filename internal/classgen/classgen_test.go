package classgen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"focus/internal/dataset"
)

// person builds a tuple with the given fields and zeroes elsewhere,
// defaulting every attribute to a mid-domain value.
func person(mutate func(dataset.Tuple)) dataset.Tuple {
	t := dataset.Tuple{50000, 0, 50, 0, 0, 0, 100000, 10, 100000, 0}
	mutate(t)
	return t
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	cfg := Config{NumTuples: 3000, Function: F1, Seed: 5}
	d1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Validate(); err != nil {
		t.Fatalf("generated dataset invalid: %v", err)
	}
	if d1.Len() != 3000 {
		t.Fatalf("generated %d tuples", d1.Len())
	}
	for i := range d1.Tuples {
		for j := range d1.Tuples[i] {
			if d1.Tuples[i][j] != d2.Tuples[i][j] {
				t.Fatal("generation not deterministic")
			}
		}
	}
}

func TestCommissionRule(t *testing.T) {
	d, err := Generate(Config{NumTuples: 2000, Function: F1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range d.Tuples {
		sal, com := tu[AttrSalary], tu[AttrCommission]
		if sal >= 75000 && com != 0 {
			t.Fatalf("salary %v >= 75000 but commission %v != 0", sal, com)
		}
		if sal < 75000 && (com < 10000 || com > 75000) {
			t.Fatalf("salary %v < 75000 but commission %v outside [10000,75000]", sal, com)
		}
	}
}

func TestHValueDependsOnZipcode(t *testing.T) {
	d, err := Generate(Config{NumTuples: 5000, Function: F1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range d.Tuples {
		k := tu[AttrZipcode] + 1
		hv := tu[AttrHValue]
		if hv < 0.5*k*100000 || hv > 1.5*k*100000 {
			t.Fatalf("hvalue %v outside [%v,%v] for zipcode %v", hv, 0.5*k*100000, 1.5*k*100000, tu[AttrZipcode])
		}
	}
}

func TestF1Classify(t *testing.T) {
	cases := []struct {
		age  float64
		want int
	}{
		{25, GroupA}, {39.9, GroupA}, {40, GroupB}, {59.9, GroupB}, {60, GroupA}, {75, GroupA},
	}
	for _, c := range cases {
		tu := person(func(t dataset.Tuple) { t[AttrAge] = c.age })
		if got := F1.Classify(tu); got != c.want {
			t.Errorf("F1(age=%v) = %d, want %d", c.age, got, c.want)
		}
	}
}

func TestF2Classify(t *testing.T) {
	cases := []struct {
		age, salary float64
		want        int
	}{
		{30, 75000, GroupA},
		{30, 40000, GroupB},
		{50, 100000, GroupA},
		{50, 60000, GroupB},
		{70, 50000, GroupA},
		{70, 100000, GroupB},
	}
	for _, c := range cases {
		tu := person(func(t dataset.Tuple) { t[AttrAge] = c.age; t[AttrSalary] = c.salary })
		if got := F2.Classify(tu); got != c.want {
			t.Errorf("F2(age=%v,salary=%v) = %d, want %d", c.age, c.salary, got, c.want)
		}
	}
}

func TestF3Classify(t *testing.T) {
	cases := []struct {
		age    float64
		elevel float64
		want   int
	}{
		{30, 0, GroupA}, {30, 1, GroupA}, {30, 2, GroupB},
		{50, 1, GroupA}, {50, 3, GroupA}, {50, 0, GroupB}, {50, 4, GroupB},
		{70, 2, GroupA}, {70, 4, GroupA}, {70, 1, GroupB},
	}
	for _, c := range cases {
		tu := person(func(t dataset.Tuple) { t[AttrAge] = c.age; t[AttrElevel] = c.elevel })
		if got := F3.Classify(tu); got != c.want {
			t.Errorf("F3(age=%v,elevel=%v) = %d, want %d", c.age, c.elevel, got, c.want)
		}
	}
}

func TestF4Classify(t *testing.T) {
	// age<40, low elevel: Group A iff 25000 <= salary <= 75000.
	tu := person(func(t dataset.Tuple) { t[AttrAge] = 30; t[AttrElevel] = 1; t[AttrSalary] = 50000 })
	if F4.Classify(tu) != GroupA {
		t.Error("F4 low-elevel young mid-salary should be A")
	}
	tu = person(func(t dataset.Tuple) { t[AttrAge] = 30; t[AttrElevel] = 1; t[AttrSalary] = 90000 })
	if F4.Classify(tu) != GroupB {
		t.Error("F4 low-elevel young high-salary should be B")
	}
	tu = person(func(t dataset.Tuple) { t[AttrAge] = 30; t[AttrElevel] = 3; t[AttrSalary] = 90000 })
	if F4.Classify(tu) != GroupA {
		t.Error("F4 high-elevel young high-salary should be A")
	}
}

func TestF5ThroughF10Classify(t *testing.T) {
	// F5: young, mid salary, loan decides.
	tu := person(func(t dataset.Tuple) { t[AttrAge] = 30; t[AttrSalary] = 70000; t[AttrLoan] = 200000 })
	if F5.Classify(tu) != GroupA {
		t.Error("F5 case should be A")
	}
	tu = person(func(t dataset.Tuple) { t[AttrAge] = 30; t[AttrSalary] = 70000; t[AttrLoan] = 450000 })
	if F5.Classify(tu) != GroupB {
		t.Error("F5 case should be B")
	}
	// F6: total income bands.
	tu = person(func(t dataset.Tuple) { t[AttrAge] = 30; t[AttrSalary] = 60000; t[AttrCommission] = 20000 })
	if F6.Classify(tu) != GroupA {
		t.Error("F6 case should be A")
	}
	// F7: disposable = 0.67*(salary+commission) - 0.2*loan - 20000.
	tu = person(func(t dataset.Tuple) { t[AttrSalary] = 100000; t[AttrLoan] = 0 })
	if F7.Classify(tu) != GroupA {
		t.Error("F7 high salary no loan should be A")
	}
	tu = person(func(t dataset.Tuple) { t[AttrSalary] = 30000; t[AttrCommission] = 0; t[AttrLoan] = 400000 })
	if F7.Classify(tu) != GroupB {
		t.Error("F7 low salary big loan should be B")
	}
	// F8: elevel penalty.
	tu = person(func(t dataset.Tuple) { t[AttrSalary] = 100000; t[AttrElevel] = 0 })
	if F8.Classify(tu) != GroupA {
		t.Error("F8 case should be A")
	}
	tu = person(func(t dataset.Tuple) { t[AttrSalary] = 31000; t[AttrElevel] = 4 })
	if F8.Classify(tu) != GroupB {
		t.Error("F8 case should be B")
	}
	// F9: both penalties.
	tu = person(func(t dataset.Tuple) { t[AttrSalary] = 120000; t[AttrElevel] = 1; t[AttrLoan] = 100000 })
	if F9.Classify(tu) != GroupA {
		t.Error("F9 case should be A")
	}
	// F10: home equity bonus only after 20 years.
	rich := person(func(t dataset.Tuple) {
		t[AttrSalary] = 25000
		t[AttrCommission] = 0
		t[AttrElevel] = 2
		t[AttrHYears] = 30
		t[AttrHValue] = 500000
	})
	poor := person(func(t dataset.Tuple) {
		t[AttrSalary] = 25000
		t[AttrCommission] = 0
		t[AttrElevel] = 2
		t[AttrHYears] = 10
		t[AttrHValue] = 500000
	})
	if F10.Classify(rich) != GroupA {
		t.Error("F10 long-held valuable home should be A")
	}
	if F10.Classify(poor) != GroupB {
		t.Error("F10 short-held home should be B")
	}
}

func TestGeneratedLabelsMatchFunction(t *testing.T) {
	for _, fn := range []Function{F1, F2, F3, F4} {
		d, err := Generate(Config{NumTuples: 1000, Function: fn, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		for i, tu := range d.Tuples {
			if int(tu[AttrGroup]) != fn.Classify(tu) {
				t.Fatalf("%v tuple %d label %v != Classify %v", fn, i, tu[AttrGroup], fn.Classify(tu))
			}
		}
	}
}

func TestNoiseFlipsLabels(t *testing.T) {
	cfg := Config{NumTuples: 20000, Function: F1, NoiseLevel: 0.25, Seed: 21}
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flipped := 0
	for _, tu := range d.Tuples {
		if int(tu[AttrGroup]) != F1.Classify(tu) {
			flipped++
		}
	}
	rate := float64(flipped) / float64(d.Len())
	if math.Abs(rate-0.25) > 0.02 {
		t.Errorf("noise flip rate = %v, want ~0.25", rate)
	}
}

func TestConfigNameAndParse(t *testing.T) {
	cfg := Config{NumTuples: 1_000_000, Function: F1}
	if got := cfg.Name(); got != "1M.F1" {
		t.Errorf("Name = %q", got)
	}
	parsed, err := ParseName("0.5M.F3")
	if err != nil {
		t.Fatal(err)
	}
	if parsed.NumTuples != 500000 || parsed.Function != F3 {
		t.Errorf("parsed = %+v", parsed)
	}
	if _, err := ParseName("1M.F11"); err == nil {
		t.Error("accepted invalid function number")
	}
	if _, err := ParseName("junk"); err == nil {
		t.Error("accepted junk name")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{NumTuples: -1, Function: F1}); err == nil {
		t.Error("negative tuple count accepted")
	}
	if _, err := Generate(Config{NumTuples: 1, Function: Function(0)}); err == nil {
		t.Error("invalid function accepted")
	}
	if _, err := Generate(Config{NumTuples: 1, Function: F1, NoiseLevel: 2}); err == nil {
		t.Error("invalid noise level accepted")
	}
}

func TestFunctionStringAndValid(t *testing.T) {
	if F7.String() != "F7" {
		t.Errorf("String = %q", F7.String())
	}
	if Function(0).Valid() || Function(11).Valid() {
		t.Error("out-of-range function reported valid")
	}
	defer func() {
		if recover() == nil {
			t.Error("Classify with invalid function did not panic")
		}
	}()
	Function(0).Classify(person(func(dataset.Tuple) {}))
}

func TestClassBalanceReasonable(t *testing.T) {
	// None of F1-F4 should produce a degenerate (>97% one-class) dataset —
	// the paper trains trees on them.
	for _, fn := range []Function{F1, F2, F3, F4} {
		d, err := Generate(Config{NumTuples: 5000, Function: fn, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		counts := d.ClassCounts()
		frac := float64(counts[0]) / float64(d.Len())
		if frac < 0.03 || frac > 0.97 {
			t.Errorf("%v class balance = %v, degenerate", fn, frac)
		}
	}
}

// TestGenerateStreamDigest pins the generated bytes: for each function,
// with and without label noise, the WriteCSV output followed by one byte
// per tuple's class label must hash to the recorded SHA-256.
func TestGenerateStreamDigest(t *testing.T) {
	want := map[string]string{
		"F1/noise0":    "71c1be1cffef00f03dd832cc38980eb0cb7d68d02cde23f775ba735812fa0c1e",
		"F2/noise0":    "62eb8d2e67c32b731d72b5ad771b50415a3db033f0b8eb7ffafb48a8793f1495",
		"F3/noise0":    "926b0838d2aa45a59d4ac5cb586b8d5eb4d137e9ede78e9e36e855e82eb50784",
		"F4/noise0":    "860f2960bf4d5479d09a14e5198bd996f0b393c7cb195ae0c4ff7156a94d608d",
		"F5/noise0":    "87772707deaabe6d1d06ab2da9d46ea9d4c9bce21217b90057509f2ca06610e1",
		"F6/noise0":    "87a98acf75e0d76c99d26aa40be789aa882c34f1bbc2e489bc78b7ed13e357fc",
		"F7/noise0":    "b91010ff5298db8f40094ff7d454c375770b3f96a6a698af86591a9fd514b555",
		"F8/noise0":    "0f3c9b91492194e2447b5740ae71981a569b42df33f9681af22819564c56a26c",
		"F9/noise0":    "52f0598fc282a7118683401a491a4234df538011786212c6ce01e1c6dcffd111",
		"F10/noise0":   "a1ca1bde979d5dd9e38a66c34ee171a95e7cf801ead50b6bd7bb7854e99ef0e7",
		"F1/noise0.1":  "df10179c2ceaa23f071312fce9a86f12b63b9d6c9b17c56bac81f382b443c059",
		"F2/noise0.1":  "9e3e23c012a7558124a755a904c0b030e6d37b99a365dd4442c58075ce927874",
		"F3/noise0.1":  "26decc7e4bb1c1311008e9906546252c45af9d7554669b3e704ca6af43663385",
		"F4/noise0.1":  "596b34fb84e6b6deae12f0d4543b3481976d35a50445bcdd8486526474b37334",
		"F5/noise0.1":  "54a6d2251662f1dcd2a0622f1ebf56c6a6e91d0af93e4c44a0b541e888d4bb48",
		"F6/noise0.1":  "b763f9696f103f8db2f92eff7f614bba257e05b8b4f46ca0ca5d5bc89ce8cc2d",
		"F7/noise0.1":  "bcde64425513f9a400981d370f39dac552b8504f1a7e6331f4d91c53ee13cd24",
		"F8/noise0.1":  "51fa033a1756cc4152807c657cae0e53a59af42c7ca7f830186b6eef8c768f5b",
		"F9/noise0.1":  "5dfb92d1e84429326ea0c0e6a614d3ab0e562b028e0616098b6787fd3fc96ab2",
		"F10/noise0.1": "0d59bea0ecde13ceb0d6d89cae27f16928fdb48d876de57a2e138aca4386bb5a",
	}
	for _, noise := range []float64{0, 0.1} {
		for f := F1; f <= F10; f++ {
			name := fmt.Sprintf("%s/noise%v", f, noise)
			t.Run(name, func(t *testing.T) {
				d, err := Generate(Config{NumTuples: 1000, Function: f, NoiseLevel: noise, Seed: int64(f)})
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				if err := d.WriteCSV(h); err != nil {
					t.Fatal(err)
				}
				for _, tu := range d.Tuples {
					h.Write([]byte{byte(tu.Class(d.Schema))})
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
					t.Errorf("digest %s, want %s", got, want[name])
				}
			})
		}
	}
}

// benchDataset keeps the benchmarked result reachable.
var benchDataset *dataset.Dataset

// BenchmarkClassgenGenerate generates one dt input of the qualify-batch
// job: 8000 F2 tuples.
func BenchmarkClassgenGenerate(b *testing.B) {
	cfg := Config{NumTuples: 8000, Function: F2, Seed: 1}
	for b.Loop() {
		d, err := Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchDataset = d
	}
}
