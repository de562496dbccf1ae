package sqlmini

import (
	"strings"
	"testing"
)

// FuzzSQLMiniParse throws arbitrary input at the lexer and parser. The
// property under test is robustness, not acceptance: Parse must return
// a statement or an error — never panic, never both nil — and whatever
// it accepts must satisfy the Stmt invariants the executor relies on.
// On ASCII input the pull lexer is also held to the two-pass reference
// (checkAgainstRefLex): same tokens, same lexing error, and that error
// is what Parse reports wherever in the text it sits.
//
// Run with: go test -fuzz FuzzSQLMiniParse ./internal/sqlmini
func FuzzSQLMiniParse(f *testing.F) {
	// Seeds: the dialect's statement shapes, drawn from the SmallBank
	// programs, plus edge cases around each token class.
	for _, src := range []string{
		"SELECT CustomerId FROM Account WHERE Name = :name",
		"SELECT * FROM Savings WHERE CustomerId = :id FOR UPDATE",
		"UPDATE Checking SET Balance = Balance - :v WHERE CustomerId = :id;",
		"UPDATE Savings SET Balance = Balance + :v - 1 WHERE CustomerId = :id",
		"INSERT INTO Conflict VALUES (:id, 0)",
		"DELETE FROM Checking WHERE CustomerId = 7",
		"SELECT Balance FROM Checking WHERE Name = 'alice'",
		"select balance, customerid from checking where customerid = :id",
		"UPDATE t SET a = -:v, b = 'x' WHERE k = :k",
		"SELECT * FROM t",
		"INSERT INTO t VALUES ('it''s', -42)",
		"SELECT :p FROM",
		"UPDATE SET",
		"'unterminated",
		"SELECT FROM 'unterminated",
		"UPDATE t SET a = a-1, b = (1)-1 WHERE k = -1",
		"SELECT caf\xc3\xa9 FROM t WHERE k = 'caf\xc3\xa9'",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1024 {
			return
		}
		checkAgainstRefLex(t, src)
		stmt, err := Parse(src)
		if err != nil {
			if stmt != nil {
				t.Fatalf("Parse(%q) returned both a statement and error %v", src, err)
			}
			return
		}
		if stmt == nil {
			t.Fatalf("Parse(%q) returned nil, nil", src)
		}
		if stmt.Table == "" {
			t.Fatalf("Parse(%q) accepted a statement without a table", src)
		}
		switch stmt.Kind {
		case StmtSelect:
			if len(stmt.Cols) == 0 {
				t.Fatalf("Parse(%q): SELECT with no output columns", src)
			}
		case StmtUpdate:
			if len(stmt.Sets) == 0 {
				t.Fatalf("Parse(%q): UPDATE with no assignments", src)
			}
			for _, a := range stmt.Sets {
				if a.Col == "" || len(a.Expr.Terms) == 0 {
					t.Fatalf("Parse(%q): empty SET assignment %+v", src, a)
				}
			}
		case StmtInsert:
			if len(stmt.Values) == 0 {
				t.Fatalf("Parse(%q): INSERT with no values", src)
			}
			for _, e := range stmt.Values {
				if len(e.Terms) == 0 {
					t.Fatalf("Parse(%q): empty VALUES expression", src)
				}
			}
		case StmtDelete:
			// WHERE is optional for the parser; nothing further to hold.
		default:
			t.Fatalf("Parse(%q): unknown statement kind %d", src, stmt.Kind)
		}
		if stmt.Where != nil && stmt.Where.Col == "" {
			t.Fatalf("Parse(%q): WHERE without a column", src)
		}
		// Accepted statements must round-trip through MustParse without
		// panicking (same code path, belt and braces for its callers).
		if got := MustParse(src); got == nil {
			t.Fatalf("MustParse(%q) returned nil", src)
		}
		// A trailing semicolon stays accepted (idempotent termination).
		if !strings.HasSuffix(strings.TrimSpace(src), ";") {
			if _, err := Parse(src + ";"); err != nil {
				t.Fatalf("Parse(%q) accepted but with semicolon failed: %v", src, err)
			}
		}
	})
}
