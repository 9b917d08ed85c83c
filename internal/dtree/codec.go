package dtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"focus/internal/dataset"
)

// This file is the binary codec of a tree, the form focusd keeps a pinned
// tree in so that a restart rebuilds the tree instead of growing it again.
// A tree is its nodes in preorder (a node, its left subtree, then its right
// subtree), each node a tag byte and its payload:
//
//	leaf         nodeLeaf, then each class count as a uvarint, in class order
//	numeric      nodeNumeric, the split attribute as a uvarint, then the
//	             threshold's float64 bits, 8 bytes little-endian
//	categorical  nodeCategorical, the split attribute as a uvarint, then the
//	             left value set as a bitmap of ceil(cardinality/8) bytes,
//	             value v at bit v%8 of byte v/8
//
// The schema is not part of the encoding: the decoder takes it, and the
// decoded tree is validated by NewTree against it. Thresholds keep their
// exact bits, so a decoded tree routes every tuple to the leaf the encoded
// one does, and a valid encoding decodes and re-encodes to the same bytes.

const (
	nodeLeaf        byte = 0
	nodeNumeric     byte = 1
	nodeCategorical byte = 2
)

// maxDecodeDepth bounds the depth of a decoded tree, so a crafted encoding
// cannot exhaust the stack. A grown tree is at most Config.MaxDepth deep
// (12 by default) and needs MinLeaf tuples per leaf, so no realistic one
// comes near it.
const maxDecodeDepth = 1 << 16

// AppendBinary appends the binary form of t to buf.
func (t *Tree) AppendBinary(buf []byte) []byte {
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			buf = append(buf, nodeLeaf)
			for _, c := range n.ClassCounts {
				buf = binary.AppendUvarint(buf, uint64(c))
			}
			return
		}
		a := &t.Schema.Attrs[n.Attr]
		if a.Kind == dataset.Numeric {
			buf = binary.AppendUvarint(append(buf, nodeNumeric), uint64(n.Attr))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(n.Threshold))
		} else {
			buf = binary.AppendUvarint(append(buf, nodeCategorical), uint64(n.Attr))
			bitmap := make([]byte, (a.Cardinality()+7)/8)
			for v, left := range n.LeftValues {
				if left {
					bitmap[v/8] |= 1 << (v % 8)
				}
			}
			buf = append(buf, bitmap...)
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)
	return buf
}

// DecodeBinary decodes the tree AppendBinary wrote on schema s; b must hold
// exactly that tree. Every split must name a non-class attribute of s with
// the node kind of the attribute, every threshold must be finite and every
// class count a non-negative int; the assembled tree then passes NewTree.
func DecodeBinary(s *dataset.Schema, b []byte) (*Tree, error) {
	if s.Class < 0 {
		return nil, errors.New("dtree: schema has no class attribute")
	}
	d := treeDecoder{s: s, b: b}
	root, err := d.node(0)
	if err != nil {
		return nil, err
	}
	if len(d.b) > 0 {
		return nil, fmt.Errorf("dtree: binary tree has %d trailing bytes", len(d.b))
	}
	return NewTree(s, root)
}

// treeDecoder reads nodes off the front of b.
type treeDecoder struct {
	s *dataset.Schema
	b []byte
}

// uvarint reads one uvarint in the shortest form AppendUvarint writes.
func (d *treeDecoder) uvarint() (uint64, error) {
	v, k := binary.Uvarint(d.b)
	if k <= 0 || k > 1 && d.b[k-1] == 0 {
		return 0, errors.New("dtree: malformed uvarint in binary tree")
	}
	d.b = d.b[k:]
	return v, nil
}

// node decodes the subtree at the front of d.b, whose root sits at depth.
func (d *treeDecoder) node(depth int) (*Node, error) {
	if depth > maxDecodeDepth {
		return nil, fmt.Errorf("dtree: binary tree deeper than %d", maxDecodeDepth)
	}
	if len(d.b) == 0 {
		return nil, errors.New("dtree: binary tree ends inside a node")
	}
	tag := d.b[0]
	d.b = d.b[1:]
	if tag == nodeLeaf {
		counts := make([]int, d.s.NumClasses())
		for c := range counts {
			v, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if v > math.MaxInt {
				return nil, fmt.Errorf("dtree: class count %d overflows int", v)
			}
			counts[c] = int(v)
		}
		return &Node{ClassCounts: counts}, nil
	}
	if tag != nodeNumeric && tag != nodeCategorical {
		return nil, fmt.Errorf("dtree: unknown node tag %#x in binary tree", tag)
	}
	attr, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if attr >= uint64(len(d.s.Attrs)) {
		return nil, fmt.Errorf("dtree: split on attribute %d, schema has %d", attr, len(d.s.Attrs))
	}
	n := &Node{Attr: int(attr)}
	a := &d.s.Attrs[n.Attr]
	if (tag == nodeNumeric) != (a.Kind == dataset.Numeric) {
		return nil, fmt.Errorf("dtree: node kind does not match attribute %q", a.Name)
	}
	if tag == nodeNumeric {
		if len(d.b) < 8 {
			return nil, errors.New("dtree: binary tree ends inside a threshold")
		}
		n.Threshold = math.Float64frombits(binary.LittleEndian.Uint64(d.b))
		d.b = d.b[8:]
	} else {
		card := a.Cardinality()
		size := (card + 7) / 8
		if len(d.b) < size {
			return nil, errors.New("dtree: binary tree ends inside a value set")
		}
		// Bits past the cardinality would not re-encode.
		if card%8 != 0 && d.b[size-1]>>(card%8) != 0 {
			return nil, fmt.Errorf("dtree: value set of attribute %q names values past its cardinality", a.Name)
		}
		n.LeftValues = make([]bool, card)
		for v := range n.LeftValues {
			n.LeftValues[v] = d.b[v/8]&(1<<(v%8)) != 0
		}
		d.b = d.b[size:]
	}
	if n.Left, err = d.node(depth + 1); err != nil {
		return nil, err
	}
	if n.Right, err = d.node(depth + 1); err != nil {
		return nil, err
	}
	return n, nil
}
