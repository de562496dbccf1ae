package smallbank

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/sdg"
	"sicost/internal/sqlmini"
)

// sql.go is the one definition of the five SmallBank programs: the
// paper's SQL (§III-B; WriteCheck is Program 1 verbatim), parsed once,
// and each program's control flow. A program runs against an executor
// with positional bindings, the row key (:N or :x) and the amount (:V):
// the engine executor runs the direct engine calls each statement was
// compiled to at package init, and the recorder reads the programs as
// the SDG accesses BasePrograms returns. A strategy's modifications
// reach a running program as statement rewrites (strategy.go).

// TxnType identifies one of the five benchmark programs.
type TxnType uint8

// The five SmallBank transaction programs (§III-B).
const (
	Balance TxnType = iota
	DepositChecking
	TransactSaving
	Amalgamate
	WriteCheck
	numTxnTypes
)

// NumTxnTypes is the number of transaction programs.
const NumTxnTypes = int(numTxnTypes)

var txnNames = [numTxnTypes][2]string{
	{"Balance", "Bal"}, {"DepositChecking", "DC"}, {"TransactSaving", "TS"},
	{"Amalgamate", "Amg"}, {"WriteCheck", "WC"},
}

// String names the program the way the paper's figures do.
func (t TxnType) String() string {
	if t < numTxnTypes {
		return txnNames[t][0]
	}
	return fmt.Sprintf("txn(%d)", uint8(t))
}

// Short returns the paper's abbreviation (Bal, DC, TS, Amg, WC).
func (t TxnType) Short() string {
	if t < numTxnTypes {
		return txnNames[t][1]
	}
	return "?"
}

// Params carries a transaction invocation's arguments: customer name(s)
// and an amount in cents.
type Params struct {
	N1, N2 string
	V      int64
}

// stmt is one of the paper's statements: its sqlmini parse and what it
// compiles to for the engine. The benchmark's statements are point
// statements on two-column tables keyed by the WHERE column, selecting
// one column or setting one to perCol·col + perV·:V + lit.
type stmt struct {
	*sqlmini.Stmt
	schema            *core.Schema
	col               int // SELECT: the column selected; UPDATE: the column set
	perCol, perV, lit int64
}

func compile(src string) *stmt {
	p := sqlmini.MustParse(src)
	s := &stmt{Stmt: p, schema: schemas[p.Table]}
	if p.Kind == sqlmini.StmtSelect {
		s.col = colIndex(s.schema, p.Cols[0])
		return s
	}
	s.col = colIndex(s.schema, p.Sets[0].Col)
	for _, t := range p.Sets[0].Expr.Terms {
		sign := int64(1)
		if t.Neg {
			sign = -1
		}
		switch {
		case t.Col != "":
			s.perCol += sign
		case t.Param != "":
			s.perV += sign
		default:
			s.lit += sign * t.Lit.I
		}
	}
	return s
}

var schemas = map[string]*core.Schema{TableAccount: AccountSchema(), TableSaving: SavingSchema(),
	TableChecking: CheckingSchema(), TableConflict: ConflictSchema()}

// colIndex resolves a column name case-insensitively, as SQL does.
func colIndex(s *core.Schema, name string) int {
	return slices.IndexFunc(s.Columns, func(c core.Column) bool { return strings.EqualFold(c.Name, name) })
}

// The paper's statements.
var (
	qLookup   = compile(`SELECT CustomerId FROM Account WHERE Name = :N`)
	qSaving   = compile(`SELECT Balance FROM Saving WHERE CustomerId = :x`)
	qChecking = compile(`SELECT Balance FROM Checking WHERE CustomerId = :x`)

	uCheckingMinusPenalty = compile(`UPDATE Checking SET Balance = Balance - :V - 1 WHERE CustomerId = :x`)
	uCheckingMinus        = compile(`UPDATE Checking SET Balance = Balance - :V WHERE CustomerId = :x`)
	uCheckingPlus         = compile(`UPDATE Checking SET Balance = Balance + :V WHERE CustomerId = :x`)
	uSavingPlus           = compile(`UPDATE Saving SET Balance = Balance + :V WHERE CustomerId = :x`)
	uSavingZero           = compile(`UPDATE Saving SET Balance = 0 WHERE CustomerId = :x`)
	uCheckingZero         = compile(`UPDATE Checking SET Balance = 0 WHERE CustomerId = :x`)

	// The materialization statement (§II-B).
	uConflict = compile(`UPDATE Conflict SET Value = Value + 1 WHERE Id = :x`)
)

// executor runs one statement with positional bindings: key is the row
// the WHERE clause names (:N or :x), v the amount (:V). cur is the value
// of the column an UPDATE sets as the program has just selected it, or
// NULL. charge spends the platform's penalty for a modification.
type executor interface {
	query(q *stmt, key core.Value) (core.Value, error)
	exec(u *stmt, key core.Value, v int64, cur core.Value) error
	charge(t sdg.Technique)
}

// engineExec runs statements as direct engine calls. It is one pointer
// wide, so an executor interface holds it without an allocation.
type engineExec struct{ tx *engine.Tx }

func (e engineExec) query(q *stmt, key core.Value) (core.Value, error) {
	var rec core.Record
	var err error
	if q.ForUpdate {
		rec, err = e.tx.ReadForUpdate(q.Table, key)
	} else {
		rec, err = e.tx.Get(q.Table, key)
	}
	if err != nil {
		return core.Value{}, err
	}
	return rec[q.col], nil
}

// exec reads the row only when the SET expression needs a value it was
// not given.
func (e engineExec) exec(u *stmt, key core.Value, v int64, cur core.Value) error {
	if u.perCol != 0 && cur.IsNull() {
		rec, err := e.tx.Get(u.Table, key)
		if err != nil {
			return err
		}
		cur = rec[u.col]
	}
	var img [2]core.Value
	img[u.schema.PK] = key
	img[u.col] = core.Int(u.perCol*cur.Int64() + u.perV*v + u.lit)
	return e.tx.Update(u.Table, key, img[:])
}

func (e engineExec) charge(t sdg.Technique) {
	c := e.tx.Cost()
	e.tx.Charge([...]time.Duration{sdg.Materialize: c.MaterializeWrite,
		sdg.PromoteUpdate: c.PromoteUpdate, sdg.PromoteSFU: c.SelectForUpdate}[t])
}

// recorder reads a program as the SDG model's accesses: a Read of the
// column a SELECT returns or an UPDATE's SET reads, a Write of the
// column an UPDATE sets, each once. The program runs with names N1 and
// N2, whose lookups return customers x1 and x2.
type recorder []sdg.Access

func (r *recorder) add(kind sdg.AccessKind, s *stmt, key core.Value) {
	a := sdg.Access{Table: s.Table, Cols: []string{s.schema.Columns[s.col].Name}, Param: key.Text(), Kind: kind}
	if !slices.ContainsFunc(*r, func(b sdg.Access) bool { return b.String() == a.String() }) {
		*r = append(*r, a)
	}
}

func (r *recorder) query(q *stmt, key core.Value) (core.Value, error) {
	r.add(sdg.Read, q, key)
	if q == qLookup {
		return core.Str("x" + key.Text()[1:]), nil
	}
	return core.Int(0), nil
}

func (r *recorder) exec(u *stmt, key core.Value, _ int64, _ core.Value) error {
	if u.perCol != 0 {
		r.add(sdg.Read, u, key)
	}
	r.add(sdg.Write, u, key)
	return nil
}

func (r *recorder) charge(sdg.Technique) {}

// record reads program typ, unmodified; a program of one customer
// names its parameters N and x, as the paper does.
func record(typ TxnType) *sdg.Program {
	var r recorder
	if err := runProgram(&r, StrategySI, typ, Params{N1: "N1", N2: "N2"}); err != nil {
		panic(err)
	}
	if !slices.ContainsFunc(r, func(a sdg.Access) bool { return a.Param == "N2" }) {
		for i := range r {
			r[i].Param = strings.TrimSuffix(r[i].Param, "1")
		}
	}
	return &sdg.Program{Name: typ.Short(), Accesses: r}
}

// run is one invocation of a program: its executor, the strategy's
// rewrites of it, the customers its lookups bound, its last SELECT and
// its first error, after which every statement is skipped.
type run struct {
	e        executor
	rw       []rewrite
	x        [2]core.Value
	err      error
	last     *stmt
	lastSlot int
	lastVal  core.Value
}

// lookup binds customer slot to name's CustomerID; an unknown name
// rolls back.
func (r *run) lookup(slot int, name string) {
	if r.err != nil {
		return
	}
	id, err := r.e.query(qLookup, core.Str(name))
	if errors.Is(err, core.ErrNotFound) {
		err = fmt.Errorf("%w: unknown customer %q", core.ErrRollback, name)
	}
	r.x[slot], r.last, r.err = id, nil, err
}

// query runs a SELECT of customer slot's row, FOR UPDATE where a
// promote-sfu rewrite says so, and returns the column.
func (r *run) query(q *stmt, slot int) int64 {
	if r.err != nil {
		return 0
	}
	for _, w := range r.rw {
		if w.tech == sdg.PromoteSFU && w.stmt.Table == q.Table && w.slot == slot {
			r.e.charge(w.tech)
			q = w.stmt
		}
	}
	v, err := r.e.query(q, r.x[slot])
	r.last, r.lastSlot, r.lastVal, r.err = q, slot, v, err
	return v.Int64()
}

// exec runs one of the program's own UPDATEs of customer slot's row. An
// UPDATE of the column the program has just selected reuses the value
// (Program 1's SELECT ... INTO, then UPDATE).
func (r *run) exec(u *stmt, slot int, v int64) {
	if r.err != nil {
		return
	}
	var cur core.Value
	if q := r.last; q != nil && q.Table == u.Table && q.col == u.col && r.lastSlot == slot {
		cur = r.lastVal
	}
	r.last, r.err = nil, r.e.exec(u, r.x[slot], v, cur)
}

// finish appends the strategy's added statements in modification order.
// Each reads its row: a rewrite is a read and a write on every executor.
func (r *run) finish() error {
	for _, w := range r.rw {
		if r.err != nil || w.tech == sdg.PromoteSFU {
			continue
		}
		key := core.Int(FixedConflictID)
		if w.slot >= 0 {
			key = r.x[w.slot]
		}
		r.e.charge(w.tech)
		r.err = r.e.exec(w.stmt, key, 0, core.Value{})
	}
	return r.err
}

// balance is Bal(N): the customer's total balance.
func balance(r *run, p Params) {
	r.lookup(0, p.N1)
	r.query(qSaving, 0)
	r.query(qChecking, 0)
}

// depositChecking is DC(N,V): a negative amount rolls back.
func depositChecking(r *run, p Params) {
	if p.V < 0 {
		r.err = fmt.Errorf("%w: negative deposit %d", core.ErrRollback, p.V)
	}
	r.lookup(0, p.N1)
	r.exec(uCheckingPlus, 0, p.V)
}

// transactSaving is TS(N,V): a negative savings balance rolls back.
func transactSaving(r *run, p Params) {
	r.lookup(0, p.N1)
	if bal := r.query(qSaving, 0); r.err == nil && bal+p.V < 0 {
		r.err = fmt.Errorf("%w: savings balance would be negative (%d%+d)", core.ErrRollback, bal, p.V)
	}
	r.exec(uSavingPlus, 0, p.V)
}

// amalgamate is Amg(N1,N2): move all funds of customer N1 into N2's
// checking account.
func amalgamate(r *run, p Params) {
	r.lookup(0, p.N1)
	r.lookup(1, p.N2)
	total := r.query(qSaving, 0) + r.query(qChecking, 0)
	r.exec(uSavingZero, 0, 0)
	r.exec(uCheckingZero, 0, 0)
	r.exec(uCheckingPlus, 1, total)
}

// writeCheck is WC(N,V), Program 1: a check the total balance does not
// cover costs a one-cent penalty.
func writeCheck(r *run, p Params) {
	r.lookup(0, p.N1)
	if r.query(qSaving, 0)+r.query(qChecking, 0) < p.V {
		r.exec(uCheckingMinusPenalty, 0, p.V)
	} else {
		r.exec(uCheckingMinus, 0, p.V)
	}
}

func runProgram(e executor, s *Strategy, typ TxnType, p Params) error {
	if typ >= numTxnTypes {
		return fmt.Errorf("smallbank: unknown transaction type %d", typ)
	}
	r := run{e: e, rw: s.rewrites[typ]}
	switch typ {
	case Balance:
		balance(&r, p)
	case DepositChecking:
		depositChecking(&r, p)
	case TransactSaving:
		transactSaving(&r, p)
	case Amalgamate:
		amalgamate(&r, p)
	default:
		writeCheck(&r, p)
	}
	return r.finish()
}

// RunIn runs one program under the strategy inside the open transaction
// tx, tagged with the program's name; the caller commits or aborts.
func RunIn(tx *engine.Tx, s *Strategy, typ TxnType, p Params) error {
	deriveAll()
	tx.SetTag(typ.Short())
	return runProgram(engineExec{tx}, s, typ, p)
}

// Run executes one transaction of the given type under the strategy:
// begin, run, commit — aborting on any error, and while an injected
// panic (faultinject.ActPanic) unwinds, so a program that dies
// mid-statement still releases its locks (engine.DB.Txn). The returned
// error is nil on commit; retriable concurrency failures satisfy
// core.IsRetriable.
func Run(db *engine.DB, s *Strategy, typ TxnType, p Params) error {
	return db.Txn(func(tx *engine.Tx) error { return RunIn(tx, s, typ, p) })
}
