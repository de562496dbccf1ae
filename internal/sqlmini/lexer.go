// Package sqlmini is a small SQL front-end over the engine, covering the
// dialect the paper's SmallBank programs are written in (§III-B,
// Program 1): single-table point SELECTs (optionally FOR UPDATE),
// UPDATEs with arithmetic SET expressions, INSERTs and DELETEs, with
// named parameters (:x). It exists so the benchmark programs can be
// expressed as the SQL the paper prints, and is deliberately not a
// general query processor: predicates are equality on the primary key or
// on a unique-indexed column, matching the paper's observation that
// "most predicates use a primary key to determine which record to read".
package sqlmini

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexer output.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokParam // :name
	tokPunct // ( ) , = + - * ;
)

// token is one lexeme. Its text is a slice of the source, except for a
// string literal that contains an escaped quote.
type token struct {
	kind tokenKind
	text string
	pos  int
}

// lexer hands out the tokens of one statement, one next call at a time.
// The only state besides the position is whether the token before was
// an operand, which is what tells a binary minus from a negative
// literal.
type lexer struct {
	src         string
	pos         int
	prevOperand bool
}

// Byte classes. Identifiers and parameter names are ASCII letters,
// digits and '_'; a byte past 0x7F is legal only inside a string
// literal, which carries arbitrary bytes.
func isSpace(c byte) bool { return c == ' ' || ('\t' <= c && c <= '\r') }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isIdentStart(c byte) bool { return c == '_' || ('a' <= c|0x20 && c|0x20 <= 'z') }

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

// next returns the following token: tokEOF at the end of the source, an
// error naming the offending position for text no token starts with.
func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && isSpace(l.src[l.pos]) {
		l.pos++
	}
	start := l.pos
	if start >= len(l.src) {
		return token{kind: tokEOF, pos: start}, nil
	}
	t := token{pos: start}
	switch c := l.src[start]; {
	case isIdentStart(c):
		t.kind, t.text = tokIdent, l.src[start:l.identEnd(start)]
	case isDigit(c), c == '-' && !l.prevOperand && start+1 < len(l.src) && isDigit(l.src[start+1]):
		// A '-' directly before a digit is a binary minus when the
		// previous token is an operand; otherwise a negative literal.
		l.pos++
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
		t.kind, t.text = tokNumber, l.src[start:l.pos]
	case c == '\'':
		text, err := l.lexString()
		if err != nil {
			return token{}, err
		}
		t.kind, t.text = tokString, text
	case c == ':':
		if start+1 >= len(l.src) || !isIdentStart(l.src[start+1]) {
			return token{}, fmt.Errorf("sqlmini: bad parameter name at %d", start)
		}
		t.kind, t.text = tokParam, l.src[start+1:l.identEnd(start+1)]
	case strings.IndexByte("(),=+-*;", c) >= 0:
		l.pos++
		t.kind, t.text = tokPunct, l.src[start:l.pos]
	default:
		return token{}, fmt.Errorf("sqlmini: unexpected character %q at %d", c, start)
	}
	l.prevOperand = t.kind == tokIdent || t.kind == tokNumber || t.kind == tokParam ||
		(t.kind == tokPunct && t.text == ")")
	return t, nil
}

// identEnd moves past the identifier that starts at from and returns
// the position after it.
func (l *lexer) identEnd(from int) int {
	l.pos = from + 1
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	return l.pos
}

// lexString consumes the string literal at the position and returns its
// value: a slice of the source unless the literal holds an escaped
// (doubled) quote, which has to be rewritten.
func (l *lexer) lexString() (string, error) {
	start := l.pos
	body := l.src[start+1:]
	end, escaped := 0, false
	for {
		i := strings.IndexByte(body[end:], '\'')
		if i < 0 {
			return "", fmt.Errorf("sqlmini: unterminated string literal at %d", start)
		}
		end += i
		if end+1 >= len(body) || body[end+1] != '\'' {
			break
		}
		end, escaped = end+2, true
	}
	l.pos = start + 1 + end + 1
	if escaped {
		return strings.ReplaceAll(body[:end], "''", "'"), nil
	}
	return body[:end], nil
}
