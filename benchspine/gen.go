package main

import (
	"errors"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"sicost/internal/core"
	"sicost/internal/smallbank"
)

// The paper's database and access skew (§IV): 18 000 customers, 90 % of
// transactions on a 1 000-customer hotspot.
const (
	customers   = 18000
	hotspotSize = 1000
	hotspotProb = 0.9
)

// maxRetries bounds the reruns of a retriable abort; a transaction that
// exhausts them counts as failed.
const maxRetries = 50

// beforeRerun is the whole retry policy: rerun at once, up to maxRetries
// times. It yields the CPU first, and from the tenth rerun on also
// waits 100 µs. Under SSI a rerun keeps aborting for as long as the
// transaction it conflicts with stays open, and fifty back-to-back
// embedded reruns take under a millisecond — less than a goroutine
// preempted mid-transaction, or paying a garbage-collection assist,
// stays open. Without the yield and the late wait about two in a million
// embed-ssi transactions gave up; with them none does.
func beforeRerun(try int) {
	runtime.Gosched()
	if try >= 10 {
		time.Sleep(100 * time.Microsecond)
	}
}

// txnInput is one generated transaction: program, customers, amount.
type txnInput struct {
	typ    smallbank.TxnType
	c1, c2 int
	v      int64
}

// generator draws one client's transaction stream. The stream is a
// function of (seed, client) alone, so the same seed gives the same
// inputs; the program under test sees only what is rendered from them.
type generator struct {
	rng         *rand.Rand
	balanceOnly bool
}

func newGenerator(seed int64, client int, balanceOnly bool) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed*7919 + int64(client))), balanceOnly: balanceOnly}
}

func (g *generator) customer() int {
	if g.rng.Float64() < hotspotProb {
		return g.rng.Intn(hotspotSize)
	}
	return hotspotSize + g.rng.Intn(customers-hotspotSize)
}

// next draws the uniform five-program mix with the amounts of
// internal/workload's driver (mostly deposits, so application
// rollbacks stay rare).
func (g *generator) next() txnInput {
	in := txnInput{typ: smallbank.Balance}
	if !g.balanceOnly {
		in.typ = smallbank.TxnType(g.rng.Intn(smallbank.NumTxnTypes))
	}
	in.c1 = g.customer()
	switch in.typ {
	case smallbank.Amalgamate:
		in.c2 = g.customer()
		for in.c2 == in.c1 {
			in.c2 = g.customer()
		}
	case smallbank.DepositChecking:
		in.v = 1 + g.rng.Int63n(100_00)
	case smallbank.TransactSaving:
		in.v = g.rng.Int63n(200_00) - 50_00
	case smallbank.WriteCheck:
		in.v = 1 + g.rng.Int63n(50_00)
	}
	return in
}

// customerNames is smallbank.CustomerName precomputed, so rendering a
// transaction costs the client no formatting.
var customerNames = func() []string {
	names := make([]string, customers)
	for i := range names {
		names[i] = smallbank.CustomerName(i)
	}
	return names
}()

func (in txnInput) params() smallbank.Params {
	p := smallbank.Params{N1: customerNames[in.c1], V: in.v}
	if in.typ == smallbank.Amalgamate {
		p.N2 = customerNames[in.c2]
	}
	return p
}

// stmtKind classifies one request line of a transaction.
type stmtKind uint8

const (
	kBegin stmtKind = iota
	kCommit
	kRollback
	kSelect
	kUpdate
)

// stmt is one statement of a SmallBank program in two renderings: the
// SQL text sent to sisqld, and the structured form the traced replay
// turns into the equivalent engine calls. Every table keeps its value
// in column 1, so an UPDATE is "column 1 = 0" or "column 1 += add".
type stmt struct {
	kind  stmtKind
	sql   string
	table string
	key   core.Value
	zero  bool
	add   int64
}

var (
	stmtBegin    = stmt{kind: kBegin, sql: "BEGIN"}
	stmtCommit   = stmt{kind: kCommit, sql: "COMMIT"}
	stmtRollback = stmt{kind: kRollback, sql: "ROLLBACK"}
)

func selectStmt(col, table, keyCol string, key core.Value) stmt {
	lit := strconv.FormatInt(key.I, 10)
	if key.K == core.KindString {
		lit = "'" + key.S + "'"
	}
	return stmt{kind: kSelect, table: table, key: key,
		sql: "SELECT " + col + " FROM " + table + " WHERE " + keyCol + " = " + lit}
}

func lookupStmt(name string) stmt {
	return selectStmt("CustomerId", smallbank.TableAccount, "Name", core.Str(name))
}

func balanceStmt(table string, cust int64) stmt {
	return selectStmt("Balance", table, "CustomerId", core.Int(cust))
}

// addStmt is "UPDATE t SET Balance = Balance ± |v|": sqlmini has no
// unary minus, so the sign picks the operator.
func addStmt(table string, cust, v int64) stmt {
	op, abs := " + ", v
	if v < 0 {
		op, abs = " - ", -v
	}
	return stmt{kind: kUpdate, table: table, key: core.Int(cust), add: v,
		sql: "UPDATE " + table + " SET Balance = Balance" + op + strconv.FormatInt(abs, 10) +
			" WHERE CustomerId = " + strconv.FormatInt(cust, 10)}
}

func zeroStmt(table string, cust int64) stmt {
	return stmt{kind: kUpdate, table: table, key: core.Int(cust), zero: true,
		sql: "UPDATE " + table + " SET Balance = 0 WHERE CustomerId = " + strconv.FormatInt(cust, 10)}
}

// conflictStmt is the paper's materialization statement (§II-B).
func conflictStmt(cust int64) stmt {
	return stmt{kind: kUpdate, table: smallbank.TableConflict, key: core.Int(cust), add: 1,
		sql: "UPDATE Conflict SET Value = Value + 1 WHERE Id = " + strconv.FormatInt(cust, 10)}
}

// stmtError is a failed statement as the wire reports it.
type stmtError struct {
	msg       string
	retriable bool
	// inTx: the session still holds the (poisoned) transaction and the
	// client must ROLLBACK.
	inTx bool
}

func (e *stmtError) Error() string { return e.msg }

// Account columns of the ledger.
const (
	acctSaving = iota
	acctChecking
)

type ledgerEntry struct {
	cust, acct int
	delta      int64
}

// ledger is one client's committed-delta book: for every customer it
// touched, the money its acknowledged commits moved, per account.
type ledger map[int][2]int64

// program runs the five SmallBank programs of internal/smallbank/sql.go
// with literals inlined, one statement per request, values read by a
// SELECT flowing into the next UPDATE. exec performs one statement and
// returns column 1 of a SELECT's row.
type program struct {
	matAll bool
	exec   func(*stmt) (int64, error)
	book   ledger
	// pending holds the current transaction's deltas until its COMMIT
	// is acknowledged; Amalgamate's three are the most any program has.
	pending [3]ledgerEntry
	npend   int
	// checkBalance, when set, receives every Balance result.
	checkBalance func(cust int, total int64)
}

type outcome uint8

const (
	committed outcome = iota
	appRollback
	failed
)

func (p *program) moved(cust, acct int, delta int64) {
	p.pending[p.npend] = ledgerEntry{cust, acct, delta}
	p.npend++
}

// run executes one attempt: BEGIN, the program body, COMMIT — or
// ROLLBACK when the body asks for the application rollback or a
// statement fails inside the transaction.
func (p *program) run(in txnInput) (outcome, error) {
	p.npend = 0
	if _, err := p.exec(&stmtBegin); err != nil {
		return failed, err
	}
	proceed, err := p.body(in)
	if err == nil && !proceed {
		_, err = p.exec(&stmtRollback)
		return appRollback, err
	}
	if err == nil {
		if _, err = p.exec(&stmtCommit); err == nil {
			for _, e := range p.pending[:p.npend] {
				row := p.book[e.cust]
				row[e.acct] += e.delta
				p.book[e.cust] = row
			}
			return committed, nil
		}
	}
	var se *stmtError
	if errors.As(err, &se) && se.inTx {
		if _, rerr := p.exec(&stmtRollback); rerr != nil {
			return failed, rerr
		}
	}
	return failed, err
}

func (p *program) do(s stmt) (int64, error) { return p.exec(&s) }

func (p *program) conflict(cust int64) error {
	if !p.matAll {
		return nil
	}
	_, err := p.do(conflictStmt(cust))
	return err
}

// body issues the statements between BEGIN and COMMIT; proceed=false
// is TransactSaving's overdraft rollback (§III-B).
func (p *program) body(in txnInput) (proceed bool, err error) {
	cust, err := p.do(lookupStmt(customerNames[in.c1]))
	if err != nil {
		return false, err
	}
	switch in.typ {
	case smallbank.Balance:
		sav, err := p.do(balanceStmt(smallbank.TableSaving, cust))
		if err != nil {
			return false, err
		}
		chk, err := p.do(balanceStmt(smallbank.TableChecking, cust))
		if err != nil {
			return false, err
		}
		if p.checkBalance != nil {
			p.checkBalance(in.c1, sav+chk)
		}
		p.moved(in.c1, acctSaving, 0)

	case smallbank.DepositChecking:
		if _, err := p.do(addStmt(smallbank.TableChecking, cust, in.v)); err != nil {
			return false, err
		}
		p.moved(in.c1, acctChecking, in.v)

	case smallbank.TransactSaving:
		sav, err := p.do(balanceStmt(smallbank.TableSaving, cust))
		if err != nil {
			return false, err
		}
		if sav+in.v < 0 {
			return false, nil
		}
		if _, err := p.do(addStmt(smallbank.TableSaving, cust, in.v)); err != nil {
			return false, err
		}
		p.moved(in.c1, acctSaving, in.v)

	case smallbank.Amalgamate:
		cust2, err := p.do(lookupStmt(customerNames[in.c2]))
		if err != nil {
			return false, err
		}
		sav, err := p.do(balanceStmt(smallbank.TableSaving, cust))
		if err != nil {
			return false, err
		}
		chk, err := p.do(balanceStmt(smallbank.TableChecking, cust))
		if err != nil {
			return false, err
		}
		for _, s := range []stmt{
			zeroStmt(smallbank.TableSaving, cust),
			zeroStmt(smallbank.TableChecking, cust),
			addStmt(smallbank.TableChecking, cust2, sav+chk),
		} {
			if _, err := p.do(s); err != nil {
				return false, err
			}
		}
		p.moved(in.c1, acctSaving, -sav)
		p.moved(in.c1, acctChecking, -chk)
		p.moved(in.c2, acctChecking, sav+chk)
		if err := p.conflict(cust); err != nil {
			return false, err
		}
		return true, p.conflict(cust2)

	case smallbank.WriteCheck:
		sav, err := p.do(balanceStmt(smallbank.TableSaving, cust))
		if err != nil {
			return false, err
		}
		chk, err := p.do(balanceStmt(smallbank.TableChecking, cust))
		if err != nil {
			return false, err
		}
		amount := in.v
		if sav+chk < in.v {
			amount++ // the one-cent overdraft penalty of Program 1
		}
		if _, err := p.do(addStmt(smallbank.TableChecking, cust, -amount)); err != nil {
			return false, err
		}
		p.moved(in.c1, acctChecking, -amount)
	}
	return true, p.conflict(cust)
}
