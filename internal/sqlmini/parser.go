package sqlmini

import (
	"fmt"
	"strconv"
	"strings"
)

// Expr is a SET/VALUES expression: a left-associative chain of + and −
// over columns, literals and parameters (enough for "Balance = Balance -
// (:V+1)"-style statements once flattened; parentheses are not needed by
// the benchmark's statements and are not supported).
type Expr struct {
	Terms []Term
}

// Term is one signed operand.
type Term struct {
	Neg   bool
	Col   string // column reference when non-empty
	Param string // parameter reference when non-empty
	Lit   Value  // literal otherwise
}

// Value is a SQL literal: int64 or string.
type Value struct {
	IsStr bool
	I     int64
	S     string
}

// Cond is the WHERE clause: column = operand (parameter or literal).
type Cond struct {
	Col   string
	Param string
	Lit   Value
	IsLit bool
}

// Statement kinds.
type StmtKind uint8

// Statement kinds supported by the dialect.
const (
	StmtSelect StmtKind = iota
	StmtUpdate
	StmtInsert
	StmtDelete
)

// Stmt is a parsed statement.
type Stmt struct {
	Kind  StmtKind
	Table string

	// SELECT: output columns ("*" alone means all), ForUpdate flag.
	Cols      []string
	ForUpdate bool

	// UPDATE: SET assignments.
	Sets []Assign

	// INSERT: VALUES expressions, in schema column order.
	Values []Expr

	// Where applies to SELECT/UPDATE/DELETE.
	Where *Cond
}

// Assign is one SET column = expr.
type Assign struct {
	Col  string
	Expr Expr
}

// parser pulls tokens from the lexer one at a time: tok is the only
// lookahead the grammar needs, and nothing ever backs up.
type parser struct {
	lex lexer
	tok token
	// lexErr is the first lexing error; from then on tok reads as the
	// end of the statement.
	lexErr error
}

// Parse parses one statement (an optional trailing semicolon is
// allowed). A lexing error anywhere in src is reported in preference to
// a syntax error before it.
func Parse(src string) (*Stmt, error) {
	p := parser{lex: lexer{src: src}}
	p.advance()
	stmt, err := p.parseStatement()
	if err != nil {
		for p.tok.kind != tokEOF {
			p.advance()
		}
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return stmt, err
}

func (p *parser) parseStatement() (*Stmt, error) {
	var (
		stmt *Stmt
		err  error
	)
	switch {
	case p.acceptKeyword("SELECT"):
		stmt, err = p.parseSelect()
	case p.acceptKeyword("UPDATE"):
		stmt, err = p.parseUpdate()
	case p.acceptKeyword("INSERT"):
		stmt, err = p.parseInsert()
	case p.acceptKeyword("DELETE"):
		stmt, err = p.parseDelete()
	default:
		return nil, fmt.Errorf("sqlmini: statement must start with SELECT/UPDATE/INSERT/DELETE: %q", p.lex.src)
	}
	if err != nil {
		return nil, err
	}
	p.accept(tokPunct, ";")
	if !p.at(tokEOF, "") {
		return nil, fmt.Errorf("sqlmini: trailing input at %d in %q", p.tok.pos, p.lex.src)
	}
	return stmt, nil
}

// MustParse panics on error; for statically known statement constants.
func MustParse(src string) *Stmt {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

// advance makes the next token current.
func (p *parser) advance() {
	if p.lexErr != nil {
		return
	}
	if p.tok, p.lexErr = p.lex.next(); p.lexErr != nil {
		p.tok = token{kind: tokEOF, pos: len(p.lex.src)}
	}
}

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.tok
	if t.kind != kind {
		return false
	}
	if text == "" {
		return true
	}
	if kind == tokIdent {
		return strings.EqualFold(t.text, text)
	}
	return t.text == text
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) acceptKeyword(kw string) bool { return p.accept(tokIdent, kw) }

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sqlmini: expected %s at %d in %q", kw, p.tok.pos, p.lex.src)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.tok
	if t.kind != tokIdent {
		return "", fmt.Errorf("sqlmini: expected identifier at %d in %q", t.pos, p.lex.src)
	}
	p.advance()
	return t.text, nil
}

func (p *parser) expectPunct(s string) error {
	if !p.accept(tokPunct, s) {
		return fmt.Errorf("sqlmini: expected %q at %d in %q", s, p.tok.pos, p.lex.src)
	}
	return nil
}

// parseExpr parses term (('+'|'-') term)*.
func (p *parser) parseExpr() (Expr, error) {
	var e Expr
	t, err := p.parseTerm(false)
	if err != nil {
		return e, err
	}
	e.Terms = append(e.Terms, t)
	for {
		switch {
		case p.accept(tokPunct, "+"):
			t, err := p.parseTerm(false)
			if err != nil {
				return e, err
			}
			e.Terms = append(e.Terms, t)
		case p.accept(tokPunct, "-"):
			t, err := p.parseTerm(true)
			if err != nil {
				return e, err
			}
			e.Terms = append(e.Terms, t)
		default:
			return e, nil
		}
	}
}

func (p *parser) parseTerm(neg bool) (Term, error) {
	t := p.tok
	switch t.kind {
	case tokIdent:
		p.advance()
		return Term{Neg: neg, Col: t.text}, nil
	case tokParam:
		p.advance()
		return Term{Neg: neg, Param: t.text}, nil
	case tokNumber:
		p.advance()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Term{}, fmt.Errorf("sqlmini: bad number %q at %d", t.text, t.pos)
		}
		return Term{Neg: neg, Lit: Value{I: n}}, nil
	case tokString:
		p.advance()
		return Term{Neg: neg, Lit: Value{IsStr: true, S: t.text}}, nil
	default:
		return Term{}, fmt.Errorf("sqlmini: expected expression term at %d in %q", t.pos, p.lex.src)
	}
}

// parseWhere parses WHERE col = (param|literal).
func (p *parser) parseWhere() (*Cond, error) {
	if err := p.expectKeyword("WHERE"); err != nil {
		return nil, err
	}
	col, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}
	t := p.tok
	switch t.kind {
	case tokParam:
		p.advance()
		return &Cond{Col: col, Param: t.text}, nil
	case tokNumber:
		p.advance()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sqlmini: bad number in WHERE at %d", t.pos)
		}
		return &Cond{Col: col, Lit: Value{I: n}, IsLit: true}, nil
	case tokString:
		p.advance()
		return &Cond{Col: col, Lit: Value{IsStr: true, S: t.text}, IsLit: true}, nil
	default:
		return nil, fmt.Errorf("sqlmini: WHERE needs a parameter or literal at %d in %q", t.pos, p.lex.src)
	}
}

func (p *parser) parseSelect() (*Stmt, error) {
	s := &Stmt{Kind: StmtSelect}
	if p.accept(tokPunct, "*") {
		s.Cols = []string{"*"}
	} else {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			s.Cols = append(s.Cols, col)
			if !p.accept(tokPunct, ",") {
				break
			}
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	s.Table = tbl
	w, err := p.parseWhere()
	if err != nil {
		return nil, err
	}
	s.Where = w
	if p.acceptKeyword("FOR") {
		if err := p.expectKeyword("UPDATE"); err != nil {
			return nil, err
		}
		s.ForUpdate = true
	}
	return s, nil
}

func (p *parser) parseUpdate() (*Stmt, error) {
	s := &Stmt{Kind: StmtUpdate}
	tbl, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	s.Table = tbl
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		expr, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Sets = append(s.Sets, Assign{Col: col, Expr: expr})
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	w, err := p.parseWhere()
	if err != nil {
		return nil, err
	}
	s.Where = w
	return s, nil
}

func (p *parser) parseInsert() (*Stmt, error) {
	s := &Stmt{Kind: StmtInsert}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	tbl, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	s.Table = tbl
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		expr, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Values = append(s.Values, expr)
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *parser) parseDelete() (*Stmt, error) {
	s := &Stmt{Kind: StmtDelete}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	s.Table = tbl
	w, err := p.parseWhere()
	if err != nil {
		return nil, err
	}
	s.Where = w
	return s, nil
}
