package sqlmini

import (
	"fmt"
	"strings"
	"testing"
	"unicode"
)

// refLex is the two-pass lexer the parser used before it pulled tokens
// one at a time, kept as the reference the pull lexer is compared with:
// it tokenizes all of src before anything is parsed, builds every
// literal in a strings.Builder and classifies bytes by reading them as
// Latin-1 runes — so the two agree on ASCII input only.
func refLex(src string) ([]token, error) {
	l := &refLexer{src: src}
	for {
		for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
			l.pos++
		}
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		c := l.src[l.pos]
		switch {
		case refIdentStart(rune(c)):
			l.lexIdent()
		case c >= '0' && c <= '9':
			l.lexNumber()
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' && l.prevIsOperand():
			l.emitPunct()
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
			l.lexNumber()
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c == ':':
			if err := l.lexParam(); err != nil {
				return nil, err
			}
		case strings.IndexByte("(),=+-*;", c) >= 0:
			l.emitPunct()
		default:
			return nil, fmt.Errorf("sqlmini: unexpected character %q at %d", c, l.pos)
		}
	}
}

type refLexer struct {
	src  string
	pos  int
	toks []token
}

func (l *refLexer) prevIsOperand() bool {
	if len(l.toks) == 0 {
		return false
	}
	t := l.toks[len(l.toks)-1]
	return t.kind == tokIdent || t.kind == tokNumber || t.kind == tokParam ||
		(t.kind == tokPunct && t.text == ")")
}

func refIdentStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }

func refIdentPart(r rune) bool { return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) }

func (l *refLexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && refIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	l.toks = append(l.toks, token{kind: tokIdent, text: l.src[start:l.pos], pos: start})
}

func (l *refLexer) lexNumber() {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
		l.pos++
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
}

func (l *refLexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'') // escaped quote
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: b.String(), pos: start})
			return nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sqlmini: unterminated string literal at %d", start)
}

func (l *refLexer) lexParam() error {
	start := l.pos
	l.pos++ // colon
	if l.pos >= len(l.src) || !refIdentStart(rune(l.src[l.pos])) {
		return fmt.Errorf("sqlmini: bad parameter name at %d", start)
	}
	for l.pos < len(l.src) && refIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	l.toks = append(l.toks, token{kind: tokParam, text: l.src[start+1 : l.pos], pos: start})
	return nil
}

func (l *refLexer) emitPunct() {
	l.toks = append(l.toks, token{kind: tokPunct, text: string(l.src[l.pos]), pos: l.pos})
	l.pos++
}

// lexAll drains the pull lexer: every token up to and including tokEOF,
// or the first error.
func lexAll(src string) ([]token, error) {
	l := lexer{src: src}
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// checkAgainstRefLex holds the pull lexer and Parse to the two-pass
// reference on ASCII input: the same tokens or the same error from the
// lexer, and from Parse the reference's lexing error whenever there is
// one — wherever in src it sits — and a syntax error or a statement
// only when there is none.
func checkAgainstRefLex(t *testing.T, src string) {
	t.Helper()
	if !isASCII(src) {
		return
	}
	want, wantErr := refLex(src)
	got, gotErr := lexAll(src)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("lex(%q): error %v, reference %v", src, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("lex(%q): %d tokens %+v, reference %d %+v", src, len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lex(%q): token %d = %+v, reference %+v", src, i, got[i], want[i])
		}
	}
	_, err := Parse(src)
	switch {
	case wantErr != nil && (err == nil || err.Error() != wantErr.Error()):
		t.Fatalf("Parse(%q) = %v, want the lexing error %v", src, err, wantErr)
	case wantErr == nil && err != nil && isLexError(err):
		t.Fatalf("Parse(%q) = %v, a lexing error the reference does not report", src, err)
	}
}

func isLexError(err error) bool {
	for _, prefix := range []string{"sqlmini: unexpected character", "sqlmini: unterminated string", "sqlmini: bad parameter name"} {
		if strings.HasPrefix(err.Error(), prefix) {
			return true
		}
	}
	return false
}

func TestLexerMatchesReference(t *testing.T) {
	for _, src := range []string{
		"", " \t\r\n\v\f ", "SELECT Balance FROM T WHERE k = :x",
		"a-1", "a -1", "a - 1", "(a)-1", "'s'-1", "=-1", "-1-2", "- 1", "-", "1-", ":p-1", "a--1",
		"'it''s'", "''", "''''", "'a''", "'''", "x'y'z", "'tab\there'",
		"_a1 :_b2 9z", ": name", ":", ":9", "@x", "a\x00b", "a\x7fb", "\x1c",
		"SELECT FROM 'unterminated", "SELECT a FROM t WHERE k = 1 @", "DROP @",
		"UPDATE t SET a = a - 1, b = -1 WHERE k = -7;",
	} {
		checkAgainstRefLex(t, src)
	}
}

// A lexing error anywhere in the text is reported in preference to the
// syntax error the parser meets first, as when all of the text was
// tokenized before any of it was parsed.
func TestLexErrorWinsOverSyntaxError(t *testing.T) {
	for src, want := range map[string]string{
		"SELECT FROM 'unterminated":                        "sqlmini: unterminated string literal at 12",
		"DROP TABLE t @":                                   "sqlmini: unexpected character '@' at 13",
		"SELECT a FROM t WHERE k = 1 : ":                   "sqlmini: bad parameter name at 28",
		"SELECT a FROM t WHERE k = 1 'x":                   "sqlmini: unterminated string literal at 28",
		"SELECT a FROM t WHERE k = 99999999999999999999 ~": "sqlmini: unexpected character '~' at 47",
	} {
		if _, err := Parse(src); err == nil || err.Error() != want {
			t.Errorf("Parse(%q) = %v, want %s", src, err, want)
		}
	}
	// Without one, the syntax error stands.
	if _, err := Parse("SELECT FROM 'terminated'"); err == nil || !strings.HasPrefix(err.Error(), "sqlmini: expected FROM at 12") {
		t.Errorf("syntax error = %v", err)
	}
}

// Identifiers are ASCII; a byte past 0x7F is an error where it stands
// unless a string literal carries it.
func TestLexerByteClasses(t *testing.T) {
	for src, want := range map[string]string{
		"SELECT caf\xc3\xa9 FROM t": "sqlmini: unexpected character 'Ã' at 10",
		"\xc3\xa9":                  "sqlmini: unexpected character 'Ã' at 0",
		"a \xa0 b":                  "sqlmini: unexpected character '\\u00a0' at 2", // Latin-1 NBSP is not space
		":\xe9":                     "sqlmini: bad parameter name at 0",
		"a\xff":                     "sqlmini: unexpected character 'ÿ' at 1",
	} {
		if _, err := lexAll(src); err == nil || err.Error() != want {
			t.Errorf("lex(%q) = %v, want %s", src, err, want)
		}
		if _, err := Parse(src); err == nil || err.Error() != want {
			t.Errorf("Parse(%q) = %v, want %s", src, err, want)
		}
	}

	s, err := Parse("SELECT a FROM t WHERE k = 'caf\xc3\xa9 \xff\x00 \xa0'")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Where.Lit.S; got != "caf\xc3\xa9 \xff\x00 \xa0" {
		t.Errorf("string literal = %q: bytes lost", got)
	}
	toks, err := lexAll("Az_09 :aZ_9")
	if err != nil || len(toks) != 3 || toks[0].text != "Az_09" || toks[1].text != "aZ_9" {
		t.Errorf("identifier classes: %+v, %v", toks, err)
	}
}

// The statements of the read-only Balance program cost the parser the
// three objects a caller keeps — the Stmt, its column list, its WHERE
// condition — and nothing else: no token slice, no literal copies.
func TestParseAllocations(t *testing.T) {
	for _, src := range []string{
		"SELECT CustomerId FROM Account WHERE Name = 'cust-0000017'",
		"SELECT Balance FROM Savings WHERE CustomerId = 17",
		"SELECT Balance FROM Checking WHERE CustomerId = 17",
	} {
		n := testing.AllocsPerRun(200, func() {
			if _, err := Parse(src); err != nil {
				t.Fatal(err)
			}
		})
		if n > 3 {
			t.Errorf("Parse(%q): %v allocations, want at most 3", src, n)
		}
	}
}
