package dtree

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"focus/internal/dataset"
)

// TestBinaryRoundTrip grows trees over numeric, categorical and mixed
// schemas and requires the decoded tree to be the grown one: same nodes,
// thresholds to the bit, leaf ids and routing, and an encoding that
// re-encodes to its own bytes.
func TestBinaryRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		schema *dataset.Schema
	}{
		{"numeric", numericSchema()},
		{"categorical", categoricalSchema()},
		{"mixed", mixedSchema()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := randomDataset(tc.schema, 600, 7)
			grown, err := BuildP(d, Config{MaxDepth: 6, MinLeaf: 5}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if grown.NumLeaves() < 4 {
				t.Fatalf("grown tree has %d leaves, want a real tree", grown.NumLeaves())
			}
			enc := grown.AppendBinary(nil)
			got, err := DecodeBinary(tc.schema, enc)
			if err != nil {
				t.Fatal(err)
			}
			if diff := treeDiff(got, grown); diff != "" {
				t.Fatalf("decoded tree differs: %s", diff)
			}
			if !bytes.Equal(got.AppendBinary(nil), enc) {
				t.Fatal("decoded tree re-encodes to other bytes")
			}
			for i, x := range d.Tuples {
				if got.LeafID(x) != grown.LeafID(x) {
					t.Fatalf("tuple %d routes to leaf %d, grown tree to %d", i, got.LeafID(x), grown.LeafID(x))
				}
			}
		})
	}
}

// TestBinaryThresholdBits pins that thresholds travel as exact bits,
// negative zero and subnormals included.
func TestBinaryThresholdBits(t *testing.T) {
	s := xorSchema()
	for _, th := range []float64{math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0.1 + 0.2, -math.MaxFloat64} {
		tree, err := NewTree(s, &Node{Attr: 1, Threshold: th,
			Left: &Node{ClassCounts: []int{3, 0}}, Right: &Node{ClassCounts: []int{0, 4}}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeBinary(s, tree.AppendBinary(nil))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Root.Threshold) != math.Float64bits(th) {
			t.Errorf("threshold %v decoded as %v", th, got.Root.Threshold)
		}
	}
}

// TestDecodeBinaryRejects drives the decoder's error space: every input
// fails with an error naming the defect, never a panic.
func TestDecodeBinaryRejects(t *testing.T) {
	s := mixedSchema() // a, p(5), b, q(3), class(2)
	leaf := []byte{nodeLeaf, 1, 2}
	numeric := func(attr byte, th float64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{nodeNumeric, attr}, math.Float64bits(th))
	}
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	deep := bytes.Repeat(numeric(0, 0.5), maxDecodeDepth+2)
	for _, tc := range []struct {
		name, want string
		b          []byte
	}{
		{"empty", "ends inside a node", nil},
		{"trailing", "trailing", join(leaf, []byte{0})},
		{"unknown tag", "unknown node tag", []byte{7}},
		{"short leaf", "malformed uvarint", []byte{nodeLeaf, 1}},
		{"long uvarint", "malformed uvarint", []byte{nodeLeaf, 0x81, 0x00, 1}},
		{"count overflows int", "overflows int", append([]byte{nodeLeaf}, binary.AppendUvarint(nil, math.MaxUint64)...)},
		{"attr out of range", "split on attribute 9", join([]byte{nodeNumeric, 9}, leaf, leaf)},
		{"class split", "class attribute", join([]byte{nodeCategorical, 4, 0x01}, leaf, leaf)},
		{"numeric tag on categorical", "does not match", join(numeric(1, 0), leaf, leaf)},
		{"categorical tag on numeric", "does not match", join([]byte{nodeCategorical, 0, 1}, leaf, leaf)},
		{"bits past cardinality", "past its cardinality", join([]byte{nodeCategorical, 1, 0x21}, leaf, leaf)},
		{"short value set", "inside a value set", []byte{nodeCategorical, 1}},
		{"short threshold", "inside a threshold", []byte{nodeNumeric, 0, 1, 2}},
		{"NaN threshold", "not finite", join(numeric(0, math.NaN()), leaf, leaf)},
		{"infinite threshold", "not finite", join(numeric(2, math.Inf(-1)), leaf, leaf)},
		{"missing right child", "ends inside a node", join(numeric(0, 0.5), leaf)},
		{"too deep", "deeper than", deep},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tree, err := DecodeBinary(s, tc.b)
			if err == nil {
				t.Fatalf("decoded %v", tree)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q, want one naming %q", err, tc.want)
			}
		})
	}
}

// TestNewTreeRejects is the validation table of NewTree, the validator of
// every decoded tree: each malformed structure is an error, not a panic.
func TestNewTreeRejects(t *testing.T) {
	s := mixedSchema()
	leaf := func() *Node { return &Node{ClassCounts: []int{1, 1}} }
	split := func(n *Node) *Node { n.Left, n.Right = leaf(), leaf(); return n }
	for _, tc := range []struct {
		name, want string
		root       *Node
	}{
		{"no root", "no root", nil},
		{"negative attr", "attribute -1", split(&Node{Attr: -1})},
		{"attr past schema", "attribute 5", split(&Node{Attr: 5})},
		{"class split", "class attribute", split(&Node{Attr: 4})},
		{"NaN threshold", "not finite", split(&Node{Attr: 0, Threshold: math.NaN()})},
		{"infinite threshold", "not finite", split(&Node{Attr: 2, Threshold: math.Inf(1)})},
		{"categorical arity", "wrong cardinality", split(&Node{Attr: 1, LeftValues: []bool{true}})},
		{"short histogram", "has 1 classes", &Node{ClassCounts: []int{1}}},
		{"long histogram", "has 3 classes", &Node{ClassCounts: []int{1, 2, 3}}},
		{"negative count", "holds -2 tuples", &Node{ClassCounts: []int{3, -2}}},
		{"nested negative count", "holds -1 tuples", &Node{Attr: 0, Left: leaf(), Right: &Node{ClassCounts: []int{-1, 0}}}},
		{"only a left child", "only a left child", &Node{Attr: 0, Left: leaf()}},
		{"only a right child", "only a right child", &Node{Attr: 0, Right: leaf()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tree, err := NewTree(s, tc.root)
			if err == nil {
				t.Fatalf("accepted %v", tree)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q, want one naming %q", err, tc.want)
			}
		})
	}
}
