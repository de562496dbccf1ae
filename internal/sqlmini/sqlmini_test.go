package sqlmini

import (
	"errors"
	"testing"

	"sicost/internal/core"
	"sicost/internal/engine"
)

func testDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.Open(engine.Config{Mode: core.SnapshotFUW})
	t.Cleanup(db.Close)
	for _, s := range []*core.Schema{
		{
			Name: "Account",
			Columns: []core.Column{
				{Name: "Name", Kind: core.KindString, NotNull: true},
				{Name: "CustomerId", Kind: core.KindInt, NotNull: true},
			},
			PK: 0, Unique: []int{1},
		},
		{
			Name: "Checking",
			Columns: []core.Column{
				{Name: "CustomerId", Kind: core.KindInt, NotNull: true},
				{Name: "Balance", Kind: core.KindInt, NotNull: true},
			},
			PK: 0,
		},
	} {
		if err := db.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	sess := NewSession(db)
	if err := sess.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, sess, `INSERT INTO Account VALUES ('alice', 1)`, nil)
	mustExec(t, sess, `INSERT INTO Checking VALUES (1, 500)`, nil)
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

func mustExec(t *testing.T, sess *Session, src string, params Params) {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	if _, err := sess.Exec(stmt, params); err != nil {
		t.Fatalf("exec %q: %v", src, err)
	}
}

func queryInt(t *testing.T, sess *Session, src string, params Params) int64 {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	row, err := sess.QueryOne(stmt, params)
	if err != nil {
		t.Fatalf("query %q: %v", src, err)
	}
	return row[0].Int64()
}

func TestLexerBasics(t *testing.T) {
	toks, err := lexAll(`SELECT Balance FROM T WHERE k = :x`)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 9 { // 6 idents + '=' + param + EOF
		t.Fatalf("tokens = %d: %+v", len(toks), toks)
	}
	if toks[7].kind != tokParam || toks[7].text != "x" {
		t.Fatalf("param token = %+v", toks[7])
	}

	// String escaping.
	toks, err = lexAll(`'it''s'`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].kind != tokString || toks[0].text != "it's" {
		t.Fatalf("string token = %+v", toks[0])
	}

	// Errors.
	for _, bad := range []string{"'unterminated", ": name", "@x"} {
		if _, err := lexAll(bad); err == nil {
			t.Errorf("lex(%q) accepted", bad)
		}
	}
}

func TestParseStatements(t *testing.T) {
	s := MustParse(`SELECT Balance, CustomerId FROM Checking WHERE CustomerId = :x FOR UPDATE`)
	if s.Kind != StmtSelect || !s.ForUpdate || len(s.Cols) != 2 || s.Table != "Checking" {
		t.Fatalf("parsed %+v", s)
	}
	u := MustParse(`UPDATE Checking SET Balance = Balance - :V - 1 WHERE CustomerId = :x`)
	if u.Kind != StmtUpdate || len(u.Sets) != 1 || len(u.Sets[0].Expr.Terms) != 3 {
		t.Fatalf("parsed %+v", u)
	}
	if !u.Sets[0].Expr.Terms[1].Neg || !u.Sets[0].Expr.Terms[2].Neg {
		t.Fatal("minus signs lost")
	}
	i := MustParse(`INSERT INTO Account VALUES ('bob', 2)`)
	if i.Kind != StmtInsert || len(i.Values) != 2 {
		t.Fatalf("parsed %+v", i)
	}
	d := MustParse(`DELETE FROM Account WHERE Name = 'bob'`)
	if d.Kind != StmtDelete || !d.Where.IsLit {
		t.Fatalf("parsed %+v", d)
	}
	star := MustParse(`SELECT * FROM Account WHERE Name = :n`)
	if len(star.Cols) != 1 || star.Cols[0] != "*" {
		t.Fatalf("parsed %+v", star)
	}

	bad := []string{
		"", "DROP TABLE x", "SELECT FROM t WHERE k = :x",
		"SELECT a FROM t", "SELECT a FROM t WHERE k > :x",
		"UPDATE t SET WHERE k = :x", "UPDATE t SET a = b",
		"INSERT INTO t (a) VALUES (1)", "INSERT t VALUES (1)",
		"DELETE FROM t", "SELECT a FROM t WHERE k = :x garbage",
		"SELECT a FROM t WHERE k = :x FOR SHARE",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse must panic on bad SQL")
		}
	}()
	MustParse("bogus")
}

func TestAutoCommitCRUD(t *testing.T) {
	db := testDB(t)
	sess := NewSession(db)

	if got := queryInt(t, sess, `SELECT Balance FROM Checking WHERE CustomerId = :x`,
		Params{"x": core.Int(1)}); got != 500 {
		t.Fatalf("balance = %d", got)
	}
	mustExec(t, sess, `UPDATE Checking SET Balance = Balance + :V WHERE CustomerId = :x`,
		Params{"x": core.Int(1), "V": core.Int(250)})
	if got := queryInt(t, sess, `SELECT Balance FROM Checking WHERE CustomerId = 1`, nil); got != 750 {
		t.Fatalf("after deposit: %d", got)
	}
	// Arithmetic with two parameters and a literal.
	mustExec(t, sess, `UPDATE Checking SET Balance = Balance - :V - 1 WHERE CustomerId = :x`,
		Params{"x": core.Int(1), "V": core.Int(100)})
	if got := queryInt(t, sess, `SELECT Balance FROM Checking WHERE CustomerId = 1`, nil); got != 649 {
		t.Fatalf("after penalty write: %d", got)
	}

	// Secondary-index WHERE (unique CustomerId on Account).
	stmt := MustParse(`SELECT Name FROM Account WHERE CustomerId = :id`)
	row, err := sess.QueryOne(stmt, Params{"id": core.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Text() != "alice" {
		t.Fatalf("name = %v", row[0])
	}

	// DELETE and NotFound.
	mustExec(t, sess, `DELETE FROM Account WHERE Name = 'alice'`, nil)
	if _, err := sess.Query(MustParse(`SELECT * FROM Account WHERE Name = 'alice'`), nil); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("after delete: %v", err)
	}
}

func TestExplicitTransaction(t *testing.T) {
	db := testDB(t)
	sess := NewSession(db)
	if err := sess.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Begin(); err == nil {
		t.Fatal("nested begin accepted")
	}
	mustExec(t, sess, `UPDATE Checking SET Balance = 0 WHERE CustomerId = 1`, nil)

	// Another session must not see the uncommitted write.
	other := NewSession(db)
	if got := queryInt(t, other, `SELECT Balance FROM Checking WHERE CustomerId = 1`, nil); got != 500 {
		t.Fatalf("dirty read through SQL: %d", got)
	}
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := queryInt(t, other, `SELECT Balance FROM Checking WHERE CustomerId = 1`, nil); got != 0 {
		t.Fatalf("after commit: %d", got)
	}
	if err := sess.Commit(); err == nil {
		t.Fatal("commit without transaction accepted")
	}
	sess.Rollback() // no-op
}

func TestRollback(t *testing.T) {
	db := testDB(t)
	sess := NewSession(db)
	if err := sess.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, sess, `UPDATE Checking SET Balance = 1 WHERE CustomerId = 1`, nil)
	sess.Rollback()
	if got := queryInt(t, sess, `SELECT Balance FROM Checking WHERE CustomerId = 1`, nil); got != 500 {
		t.Fatalf("rollback lost: %d", got)
	}
}

func TestSelectForUpdateSQL(t *testing.T) {
	db := testDB(t)
	sess := NewSession(db)
	if err := sess.Begin(); err != nil {
		t.Fatal(err)
	}
	got := queryInt(t, sess, `SELECT Balance FROM Checking WHERE CustomerId = :x FOR UPDATE`,
		Params{"x": core.Int(1)})
	if got != 500 {
		t.Fatalf("sfu read %d", got)
	}
	// A concurrent writer conflicts after our commit? On PostgreSQL
	// semantics it doesn't — just confirm the lock is held for now by
	// checking a second session's write errors after our commit is a
	// no-op (covered in engine tests). Here: commit cleanly.
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestExecErrors(t *testing.T) {
	db := testDB(t)
	sess := NewSession(db)
	cases := []struct {
		src    string
		params Params
	}{
		{`SELECT Balance FROM Nope WHERE k = 1`, nil},
		{`SELECT Nope FROM Checking WHERE CustomerId = 1`, nil},
		{`SELECT Balance FROM Checking WHERE Nope = 1`, nil},
		{`SELECT Balance FROM Checking WHERE CustomerId = :missing`, nil},
		{`UPDATE Checking SET Nope = 1 WHERE CustomerId = 1`, nil},
		{`UPDATE Checking SET Balance = Balance + :missing WHERE CustomerId = 1`, nil},
		{`UPDATE Checking SET Balance = Balance + Nope WHERE CustomerId = 1`, nil},
		{`INSERT INTO Checking VALUES (1, 1)`, nil},         // duplicate PK
		{`INSERT INTO Checking VALUES (Balance, 1)`, nil},   // column ref in INSERT
		{`DELETE FROM Checking WHERE CustomerId = 99`, nil}, // missing row
	}
	for _, c := range cases {
		stmt, err := Parse(c.src)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		if stmt.Kind == StmtSelect {
			if _, err := sess.Query(stmt, c.params); err == nil {
				t.Errorf("query %q succeeded", c.src)
			}
			continue
		}
		if _, err := sess.Exec(stmt, c.params); err == nil {
			t.Errorf("exec %q succeeded", c.src)
		}
	}
	// Kind mismatches.
	if _, err := sess.Query(MustParse(`UPDATE Checking SET Balance = 1 WHERE CustomerId = 1`), nil); err == nil {
		t.Error("Query accepted an UPDATE")
	}
	if _, err := sess.Exec(MustParse(`SELECT * FROM Checking WHERE CustomerId = 1`), nil); err == nil {
		t.Error("Exec accepted a SELECT")
	}
	// String arithmetic rejected.
	if _, err := sess.Exec(MustParse(`UPDATE Account SET Name = Name + 1 WHERE Name = 'alice'`), nil); err == nil {
		t.Error("string arithmetic accepted")
	}
}

func TestCaseInsensitiveColumns(t *testing.T) {
	db := testDB(t)
	sess := NewSession(db)
	if got := queryInt(t, sess, `SELECT balance FROM Checking WHERE customerid = 1`, nil); got != 500 {
		t.Fatalf("case-folded query = %d", got)
	}
}
