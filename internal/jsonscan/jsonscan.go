// Package jsonscan is the single-pass JSON lexer under the row decoders of
// the tuple and transaction wire formats. It walks a byte slice once,
// validating exactly the grammar encoding/json accepts — the same string
// escapes, number grammar, literals, whitespace and nesting limit — and
// hands the caller the raw tokens, so a decoder converts each value in
// place instead of re-scanning it through reflection. Unquote and the
// number conversions the decoders apply (strconv.ParseFloat and
// strconv.ParseInt on the token) are the ones encoding/json uses, so a
// decoder built on this package produces bit-identical values.
package jsonscan

import (
	"encoding/json"
	"errors"
	"fmt"
)

// maxDepth is encoding/json's nesting limit: a value nested in more than
// maxDepth arrays and objects (counting itself) is a syntax error.
const maxDepth = 10000

// errEOF is encoding/json's message for input that ends inside a value.
var errEOF = errors.New("unexpected end of JSON input")

// Scanner walks one JSON text. Its zero value scans nothing; build one with
// New. Methods that read a token skip the whitespace before it.
type Scanner struct {
	data []byte
	pos  int
}

// New returns a scanner positioned at the start of data.
func New(data []byte) Scanner { return Scanner{data: data} }

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func (s *Scanner) skipSpace() {
	for s.pos < len(s.data) && isSpace(s.data[s.pos]) {
		s.pos++
	}
}

// Peek skips whitespace and returns the next byte without consuming it, or
// 0 at the end of the input.
func (s *Scanner) Peek() byte {
	s.skipSpace()
	if s.pos == len(s.data) {
		return 0
	}
	return s.data[s.pos]
}

// Consume skips whitespace and consumes c (never 0) if it is the next
// byte.
func (s *Scanner) Consume(c byte) bool {
	if s.Peek() == c {
		s.pos++
		return true
	}
	return false
}

// Fail returns the syntax error for the byte at the scanner's position,
// found where the grammar wanted context (encoding/json's wording: "after
// array element", "looking for beginning of value", ...).
func (s *Scanner) Fail(context string) error {
	if s.pos >= len(s.data) {
		return errEOF
	}
	return fmt.Errorf("invalid character %s %s", quoteChar(s.data[s.pos]), context)
}

// quoteChar formats a byte the way encoding/json's syntax errors do.
func quoteChar(c byte) string {
	switch c {
	case '\'':
		return `'\''`
	case '"':
		return `'"'`
	}
	q := fmt.Sprintf("%q", rune(c))
	return "'" + q[1:len(q)-1] + "'"
}

// Literal consumes the literal lit (null, true or false), which must be
// next after whitespace.
func (s *Scanner) Literal(lit string) error {
	s.skipSpace()
	for i := 0; i < len(lit); i++ {
		if s.pos == len(s.data) {
			return errEOF
		}
		if s.data[s.pos] != lit[i] {
			if i == 0 {
				return s.Fail("looking for beginning of value")
			}
			return s.Fail(fmt.Sprintf("in literal %s (expecting %s)", lit, quoteChar(lit[i])))
		}
		s.pos++
	}
	return nil
}

// String consumes a string token, which must be next after whitespace, and
// returns it with its quotes. plain reports that the token holds neither
// an escape nor a non-ASCII byte, so the bytes between the quotes are the
// decoded value; other tokens decode through Unquote.
func (s *Scanner) String() (tok []byte, plain bool, err error) {
	s.skipSpace()
	start := s.pos
	if s.pos == len(s.data) {
		return nil, false, errEOF
	}
	if s.data[s.pos] != '"' {
		return nil, false, s.Fail("looking for beginning of object key string")
	}
	s.pos++
	plain = true
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		switch {
		case c == '"':
			s.pos++
			return s.data[start:s.pos], plain, nil
		case c == '\\':
			plain = false
			s.pos++
			if s.pos == len(s.data) {
				return nil, false, errEOF
			}
			switch s.data[s.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				s.pos++
			case 'u':
				s.pos++
				for k := 0; k < 4; k++ {
					if s.pos == len(s.data) {
						return nil, false, errEOF
					}
					if !isHex(s.data[s.pos]) {
						return nil, false, s.Fail("in \\u hexadecimal character escape")
					}
					s.pos++
				}
			default:
				return nil, false, s.Fail("in string escape code")
			}
		case c < 0x20:
			return nil, false, s.Fail("in string literal")
		default:
			if c >= 0x80 {
				plain = false
			}
			s.pos++
		}
	}
	return nil, false, errEOF
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Number consumes a number token, which must be next after whitespace:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. The byte after the token
// is left to the caller's grammar, as in encoding/json ("01" scans as 0
// followed by an unexpected '1').
func (s *Scanner) Number() ([]byte, error) {
	s.skipSpace()
	start := s.pos
	if s.pos < len(s.data) && s.data[s.pos] == '-' {
		s.pos++
	}
	if s.pos == len(s.data) {
		return nil, errEOF
	}
	switch c := s.data[s.pos]; {
	case c == '0':
		s.pos++
	case c >= '1' && c <= '9':
		s.pos++
		s.digits()
	case s.pos == start:
		return nil, s.Fail("looking for beginning of value")
	default:
		return nil, s.Fail("in numeric literal")
	}
	if s.pos < len(s.data) && s.data[s.pos] == '.' {
		s.pos++
		if err := s.someDigits(); err != nil {
			return nil, err
		}
	}
	if s.pos < len(s.data) && (s.data[s.pos] == 'e' || s.data[s.pos] == 'E') {
		s.pos++
		if s.pos < len(s.data) && (s.data[s.pos] == '+' || s.data[s.pos] == '-') {
			s.pos++
		}
		if err := s.someDigits(); err != nil {
			return nil, err
		}
	}
	return s.data[start:s.pos], nil
}

func (s *Scanner) digits() {
	for s.pos < len(s.data) && isDigit(s.data[s.pos]) {
		s.pos++
	}
}

// someDigits consumes one or more digits.
func (s *Scanner) someDigits() error {
	if s.pos == len(s.data) {
		return errEOF
	}
	if !isDigit(s.data[s.pos]) {
		return s.Fail("in numeric literal")
	}
	s.digits()
	return nil
}

// Skip consumes and validates one value of any kind, which must be next
// after whitespace. depth is the number of arrays and objects enclosing it.
func (s *Scanner) Skip(depth int) error {
	switch c := s.Peek(); c {
	case '{', '[':
		if depth+1 > maxDepth {
			return errors.New("exceeded max depth")
		}
		s.pos++
		closer := byte(']')
		if c == '{' {
			closer = '}'
		}
		if s.Consume(closer) {
			return nil
		}
		for {
			if c == '{' {
				if _, _, err := s.String(); err != nil {
					return err
				}
				if !s.Consume(':') {
					return s.Fail("after object key")
				}
			}
			if err := s.Skip(depth + 1); err != nil {
				return err
			}
			if s.Consume(',') {
				continue
			}
			if s.Consume(closer) {
				return nil
			}
			if c == '{' {
				return s.Fail("after object key:value pair")
			}
			return s.Fail("after array element")
		}
	case '"':
		_, _, err := s.String()
		return err
	case 'n':
		return s.Literal("null")
	case 't':
		return s.Literal("true")
	case 'f':
		return s.Literal("false")
	default:
		_, err := s.Number()
		return err
	}
}

// Value consumes one value of any kind, which must be next after
// whitespace, and returns its token: a string with its quotes (plain as
// String reports it), the whole text of an array or object. depth is as
// for Skip.
func (s *Scanner) Value(depth int) (tok []byte, plain bool, err error) {
	switch c := s.Peek(); {
	case c == '"':
		return s.String()
	case c == '-' || isDigit(c):
		tok, err = s.Number()
		return tok, false, err
	}
	start := s.pos
	err = s.Skip(depth)
	return s.data[start:s.pos], false, err
}

// End checks that only whitespace follows the scanner's position.
func (s *Scanner) End() error {
	s.skipSpace()
	if s.pos < len(s.data) {
		return s.Fail("after top-level value")
	}
	return nil
}

// Valid validates data as one JSON text — the check encoding/json runs
// before it decodes anything — and returns its first syntax error.
func Valid(data []byte) error {
	s := New(data)
	if err := s.Skip(0); err != nil {
		return err
	}
	return s.End()
}

// Kind names the JSON kind of a value starting with c, for type errors.
func Kind(c byte) string {
	switch c {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	case 'n':
		return "null"
	}
	return "number"
}

// Unquote decodes a string token (with its quotes) that String returned:
// escapes are resolved and invalid UTF-8 becomes U+FFFD, exactly as
// encoding/json decodes a string.
func Unquote(tok []byte) string {
	var v string
	if err := json.Unmarshal(tok, &v); err != nil {
		// Unreachable for a token String accepted.
		panic(fmt.Sprintf("jsonscan: unquoting a scanned string token: %v", err))
	}
	return v
}
