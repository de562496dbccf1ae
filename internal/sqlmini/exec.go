package sqlmini

import (
	"fmt"

	"sicost/internal/core"
	"sicost/internal/engine"
)

// Params binds named parameters for execution.
type Params map[string]core.Value

// Row is one result row: output column values in SELECT order.
type Row []core.Value

// Session executes statements against one database, managing the
// current transaction like a SQL connection: Begin/Commit/Rollback plus
// Exec/Query inside the transaction.
type Session struct {
	db *engine.DB
	tx *engine.Tx
	// txInit, when set, is applied to every transaction the session
	// begins — explicit Begin and the one-statement auto-commit
	// transactions alike. The server layer uses it to stamp per-statement
	// deadlines (Tx.SetDeadline) uniformly on both paths.
	txInit func(*engine.Tx)
}

// NewSession opens a session on db.
func NewSession(db *engine.DB) *Session { return &Session{db: db} }

// SetTxInit installs a hook run on every transaction this session
// begins, right after DB.Begin (nil removes it).
func (s *Session) SetTxInit(fn func(*engine.Tx)) { s.txInit = fn }

// begin starts an engine transaction with the init hook applied.
func (s *Session) begin() *engine.Tx {
	tx := s.db.Begin()
	if s.txInit != nil {
		s.txInit(tx)
	}
	return tx
}

// Begin starts a transaction; it fails if one is open.
func (s *Session) Begin() error {
	if s.tx != nil {
		return fmt.Errorf("sqlmini: transaction already open")
	}
	s.tx = s.begin()
	return nil
}

// Tx exposes the open transaction (for tagging); nil outside one.
func (s *Session) Tx() *engine.Tx { return s.tx }

// Commit commits the open transaction.
func (s *Session) Commit() error {
	if s.tx == nil {
		return fmt.Errorf("sqlmini: no open transaction")
	}
	err := s.tx.Commit()
	s.tx = nil
	return err
}

// Rollback aborts the open transaction (a no-op without one).
func (s *Session) Rollback() {
	if s.tx != nil {
		s.tx.Abort()
		s.tx = nil
	}
}

// stmtTx returns the transaction a statement runs in: the open one, or
// a one-statement transaction of its own (auto-commit) that finish ends.
func (s *Session) stmtTx() (tx *engine.Tx, auto bool) {
	if s.tx != nil {
		return s.tx, false
	}
	return s.begin(), true
}

// finish ends a statement that ran in tx with err: an auto-commit
// transaction commits, or aborts when the statement failed.
func finish(tx *engine.Tx, auto bool, err error) error {
	switch {
	case !auto:
		return err
	case err != nil:
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// Query runs a SELECT and returns its rows (single-row point reads in
// this dialect).
func (s *Session) Query(stmt *Stmt, params Params) ([]Row, error) {
	if stmt.Kind != StmtSelect {
		return nil, fmt.Errorf("sqlmini: Query requires a SELECT")
	}
	tx, auto := s.stmtTx()
	row, err := selectRow(tx, stmt, params)
	if err = finish(tx, auto, err); err != nil {
		return nil, err
	}
	return []Row{row}, nil
}

func selectRow(tx *engine.Tx, stmt *Stmt, params Params) (Row, error) {
	rec, schema, err := fetch(tx, stmt, params)
	if err != nil {
		return nil, err
	}
	return project(schema, rec, stmt.Cols)
}

// QueryOne runs a SELECT expected to match exactly one row.
func (s *Session) QueryOne(stmt *Stmt, params Params) (Row, error) {
	rows, err := s.Query(stmt, params)
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// Exec runs an UPDATE, INSERT or DELETE and returns the affected-row
// count.
func (s *Session) Exec(stmt *Stmt, params Params) (int, error) {
	tx, auto := s.stmtTx()
	if err := finish(tx, auto, execWrite(tx, stmt, params)); err != nil {
		return 0, err
	}
	return 1, nil
}

// execWrite applies one UPDATE, INSERT or DELETE, each of which touches
// exactly one row, inside tx.
func execWrite(tx *engine.Tx, stmt *Stmt, params Params) error {
	switch stmt.Kind {
	case StmtUpdate:
		rec, schema, err := fetch(tx, stmt, params)
		if err != nil {
			return err
		}
		out := rec.Clone()
		for _, set := range stmt.Sets {
			pos := schema.Col(set.Col)
			if pos < 0 {
				return fmt.Errorf("sqlmini: no column %s in %s", set.Col, stmt.Table)
			}
			v, err := evalExpr(set.Expr, schema, rec, params)
			if err != nil {
				return err
			}
			out[pos] = v
		}
		return tx.Update(stmt.Table, schema.Key(out), out)
	case StmtInsert:
		rec := make(core.Record, len(stmt.Values))
		for i, e := range stmt.Values {
			v, err := evalExpr(e, nil, nil, params)
			if err != nil {
				return err
			}
			rec[i] = v
		}
		return tx.Insert(stmt.Table, rec)
	case StmtDelete:
		rec, schema, err := fetch(tx, stmt, params)
		if err != nil {
			return err
		}
		return tx.Delete(stmt.Table, schema.Key(rec))
	default:
		return fmt.Errorf("sqlmini: Exec requires UPDATE/INSERT/DELETE")
	}
}

// fetch resolves the WHERE clause to one record: by primary key, or
// through a unique index on the condition column. SELECT ... FOR UPDATE
// routes through the engine's sfu path.
func fetch(tx *engine.Tx, stmt *Stmt, params Params) (core.Record, *core.Schema, error) {
	schema, err := tableSchema(tx, stmt.Table)
	if err != nil {
		return nil, nil, err
	}
	if stmt.Where == nil {
		return nil, nil, fmt.Errorf("sqlmini: statement on %s needs a WHERE clause", stmt.Table)
	}
	val, err := condValue(stmt.Where, params)
	if err != nil {
		return nil, nil, err
	}
	pkCol := schema.Columns[schema.PK].Name
	if equalFold(stmt.Where.Col, pkCol) {
		var rec core.Record
		if stmt.ForUpdate {
			rec, err = tx.ReadForUpdate(stmt.Table, val)
		} else {
			rec, err = tx.Get(stmt.Table, val)
		}
		if err != nil {
			return nil, nil, err
		}
		return rec, schema, nil
	}
	// Unique secondary index path.
	rec, err := tx.GetByIndex(stmt.Table, canonicalCol(schema, stmt.Where.Col), val)
	if err != nil {
		return nil, nil, err
	}
	if stmt.ForUpdate {
		if rec, err = tx.ReadForUpdate(stmt.Table, schema.Key(rec)); err != nil {
			return nil, nil, err
		}
	}
	return rec, schema, nil
}

// tableSchema reaches the schema through a throwaway read; the engine
// does not expose catalog lookups on Tx, so we consult the DB layer via
// a helper on the statement's first use.
func tableSchema(tx *engine.Tx, table string) (*core.Schema, error) {
	return tx.Schema(table)
}

func canonicalCol(schema *core.Schema, col string) string {
	for _, c := range schema.Columns {
		if equalFold(c.Name, col) {
			return c.Name
		}
	}
	return col
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// condValue resolves the WHERE operand.
func condValue(c *Cond, params Params) (core.Value, error) {
	if c.IsLit {
		return litValue(c.Lit), nil
	}
	v, ok := params[c.Param]
	if !ok {
		return core.Value{}, fmt.Errorf("sqlmini: missing parameter :%s", c.Param)
	}
	return v, nil
}

func litValue(l Value) core.Value {
	if l.IsStr {
		return core.Str(l.S)
	}
	return core.Int(l.I)
}

// evalExpr evaluates a SET/VALUES expression. Column references resolve
// against the current record (nil for INSERT). String values admit no
// arithmetic: a single positive term only.
func evalExpr(e Expr, schema *core.Schema, rec core.Record, params Params) (core.Value, error) {
	resolve := func(t Term) (core.Value, error) {
		switch {
		case t.Col != "":
			if schema == nil || rec == nil {
				return core.Value{}, fmt.Errorf("sqlmini: column reference %s outside an UPDATE", t.Col)
			}
			pos := schema.Col(canonicalCol(schema, t.Col))
			if pos < 0 {
				return core.Value{}, fmt.Errorf("sqlmini: no column %s", t.Col)
			}
			return rec[pos], nil
		case t.Param != "":
			v, ok := params[t.Param]
			if !ok {
				return core.Value{}, fmt.Errorf("sqlmini: missing parameter :%s", t.Param)
			}
			return v, nil
		default:
			return litValue(t.Lit), nil
		}
	}
	if len(e.Terms) == 1 && !e.Terms[0].Neg {
		return resolve(e.Terms[0])
	}
	var sum int64
	for _, t := range e.Terms {
		v, err := resolve(t)
		if err != nil {
			return core.Value{}, err
		}
		if v.K != core.KindInt {
			return core.Value{}, fmt.Errorf("sqlmini: arithmetic on non-integer value %s", v)
		}
		if t.Neg {
			sum -= v.Int64()
		} else {
			sum += v.Int64()
		}
	}
	return core.Int(sum), nil
}

// project selects the output columns of a SELECT.
func project(schema *core.Schema, rec core.Record, cols []string) (Row, error) {
	if len(cols) == 1 && cols[0] == "*" {
		return Row(rec.Clone()), nil
	}
	out := make(Row, 0, len(cols))
	for _, c := range cols {
		pos := schema.Col(canonicalCol(schema, c))
		if pos < 0 {
			return nil, fmt.Errorf("sqlmini: no column %s in %s", c, schema.Name)
		}
		out = append(out, rec[pos])
	}
	return out, nil
}
