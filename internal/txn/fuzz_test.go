package txn_test

import (
	"bytes"
	"strings"
	"testing"

	"focus/internal/txn"
)

// FuzzReadTxns fuzzes the transaction-file parser. The oracle: Read never
// panics; when it succeeds, the dataset satisfies Validate and survives a
// Write/Read round trip unchanged (Read normalizes transactions, Write
// emits normalized data, so the round trip is a fixed point).
func FuzzReadTxns(f *testing.F) {
	for _, seed := range []string{
		"5\n0 1 2\n3 4\n",
		"",
		"\n",
		"-5\n",
		"0\n",
		"1\n4294967296\n",
		"3\n\n\n1 1 1\n",
		"abc\n",
		"2\n1 x\n",
		"10\n9 8 7\n",
		"10\n   1    2   \n",
		"2\n1 -1\n",
		"99999999999999999999\n",
		"3\n2\n2 2 2 2\n0 1 2\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		d, err := txn.Read(strings.NewReader(in))
		if err != nil {
			return // malformed input must error, never crash
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("Read accepted a dataset that fails Validate: %v\ninput: %q", err, in)
		}
		var buf bytes.Buffer
		if err := d.Write(&buf); err != nil {
			t.Fatalf("Write after successful Read: %v", err)
		}
		d2, err := txn.Read(&buf)
		if err != nil {
			t.Fatalf("re-Read after Write: %v\ninput: %q", err, in)
		}
		if d2.NumItems != d.NumItems || d2.Len() != d.Len() {
			t.Fatalf("round trip changed shape: %d/%d -> %d/%d", d.NumItems, d.Len(), d2.NumItems, d2.Len())
		}
		for i := range d.Txns {
			a, b := d.Txns[i], d2.Txns[i]
			if len(a) != len(b) {
				t.Fatalf("round trip changed transaction %d length", i)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("round trip changed transaction %d", i)
				}
			}
		}
	})
}

// Regression tests for the crashes and silent corruptions the fuzzer's
// seed inputs pin down.
func TestReadRejectsNegativeUniverse(t *testing.T) {
	// A negative universe used to parse successfully on an empty dataset
	// and panic later in Apriori's counter allocation.
	if _, err := txn.Read(strings.NewReader("-5\n")); err == nil {
		t.Fatal("negative universe size did not error")
	}
}

func TestReadRejectsItemOverflow(t *testing.T) {
	// 2^32 used to wrap through the int32 Item conversion to item 0 and
	// read back as valid data.
	if _, err := txn.Read(strings.NewReader("1\n4294967296\n")); err == nil {
		t.Fatal("item past int32 did not error")
	}
	if _, err := txn.Read(strings.NewReader("10\n10\n")); err == nil {
		t.Fatal("out-of-universe item did not error")
	}
	if _, err := txn.Read(strings.NewReader("10\n-1\n")); err == nil {
		t.Fatal("negative item did not error")
	}
}

func TestReadRejectsUniversePastItemIDs(t *testing.T) {
	// Items are int32 ids: with a universe of 3e9, item 2147483648 passed
	// the range check and wrapped to -2147483648. The header is refused
	// before anything is sized by it.
	for _, in := range []string{"3000000000\n2147483648\n", "2147483649\n"} {
		if _, err := txn.Read(strings.NewReader(in)); err == nil {
			t.Fatalf("universe %q did not error", strings.SplitN(in, "\n", 2)[0])
		}
	}
	// The largest universe still reads; its last id is the largest Item.
	d, err := txn.Read(strings.NewReader("2147483648\n2147483647 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumItems != 1<<31 || len(d.Txns) != 1 || d.Txns[0][1] != 1<<31-1 {
		t.Fatalf("read %d items, txns %v", d.NumItems, d.Txns)
	}
	for _, n := range []int{-1, 1<<31 + 1} {
		if txn.CheckUniverse(n) == nil {
			t.Fatalf("CheckUniverse(%d) accepted", n)
		}
	}
	for _, n := range []int{0, 1, 1 << 31} {
		if err := txn.CheckUniverse(n); err != nil {
			t.Fatalf("CheckUniverse(%d): %v", n, err)
		}
	}
}
