package jsonscan_test

import (
	"encoding/json"
	"strings"
	"testing"

	"focus/internal/jsonscan"
)

// FuzzValid requires the scanner's grammar to be encoding/json's: Valid
// accepts exactly the texts json.Valid accepts.
func FuzzValid(f *testing.F) {
	for _, seed := range []string{
		``, ` `, `null`, `nul`, `nullx`, `true`, `false`, `0`, `-0`, `01`, `1.`, `.5`, `1e`, `1e+`, `-`, `+1`,
		`1.5e-7`, `1E400`, `"a"`, `"é"`, `"\u00g9"`, `"\x"`, "\"\t\"", "\"\xff\"", `"\/\b\f\n\r\t\\\""`,
		`[]`, `[1,]`, `[,1]`, `[1 2]`, `{}`, `{"a":1,}`, `{"a" 1}`, `{1:1}`, `{"a":1}x`, ` [ 1 , { "b" : [ ] } ] `,
		strings.Repeat(`[{"a":`, 20) + "0" + strings.Repeat("}]", 20),
		"[1]\x00", " [1]",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		err := jsonscan.Valid([]byte(in))
		if want := json.Valid([]byte(in)); (err == nil) != want {
			t.Fatalf("Valid(%q) = %v, json.Valid %v", in, err, want)
		}
	})
}

// TestNestingLimit pins encoding/json's limit of 10000 nested arrays and
// objects on both sides. (The fuzz seeds stay shallow so the fuzzer stays
// fast.)
func TestNestingLimit(t *testing.T) {
	for _, depth := range []int{9999, 10000, 10001} {
		in := []byte(strings.Repeat(`{"a":[`, depth/2) + strings.Repeat("[", depth%2) + strings.Repeat("]", depth%2) + strings.Repeat("]}", depth/2))
		if err, want := jsonscan.Valid(in), json.Valid(in); (err == nil) != want || want != (depth <= 10000) {
			t.Fatalf("depth %d: Valid %v, json.Valid %v", depth, err, want)
		}
	}
}
