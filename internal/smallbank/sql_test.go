package smallbank

import (
	"errors"
	"math/rand"
	"testing"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/sdg"
	"sicost/internal/sqlmini"
)

// sessionExec runs the programs' statements as sqlmini parses and
// executes them, with named parameters: the reference the compiled
// engine executor is held to.
type sessionExec struct{ sess *sqlmini.Session }

func (x sessionExec) query(q *stmt, key core.Value) (core.Value, error) {
	row, err := x.sess.QueryOne(q.Stmt, sqlmini.Params{q.Where.Param: key})
	if err != nil {
		return core.Value{}, err
	}
	return row[0], nil
}

func (x sessionExec) exec(u *stmt, key core.Value, v int64, _ core.Value) error {
	_, err := x.sess.Exec(u.Stmt, sqlmini.Params{u.Where.Param: key, "V": core.Int(v)})
	return err
}

func (x sessionExec) charge(t sdg.Technique) { engineExec{x.sess.Tx()}.charge(t) }

// runSQL is Run with the statements executed by a sqlmini session.
func runSQL(db *engine.DB, s *Strategy, typ TxnType, p Params) error {
	deriveAll()
	sess := sqlmini.NewSession(db)
	if err := sess.Begin(); err != nil {
		return err
	}
	sess.Tx().SetTag(typ.Short())
	if err := runProgram(sessionExec{sess}, s, typ, p); err != nil {
		sess.Rollback()
		return err
	}
	return sess.Commit()
}

// TestSQLMatchesEngine runs the same randomized operation sequence
// through the compiled engine executor (Run) and through sqlmini
// (runSQL) on twin databases, under every strategy on both platforms,
// and asserts identical rollback decisions and final states.
func TestSQLMatchesEngine(t *testing.T) {
	for _, s := range Strategies() {
		t.Run(s.Name, func(t *testing.T) {
			for _, plat := range []core.Platform{core.PlatformPostgres, core.PlatformCommercial} {
				compiled := testDB(t, core.SnapshotFUW, plat)
				viaSQL := testDB(t, core.SnapshotFUW, plat)

				rng := rand.New(rand.NewSource(99))
				for i := 0; i < 200; i++ {
					typ := TxnType(rng.Intn(NumTxnTypes))
					n1 := rng.Intn(11) // 10 is an unknown customer
					n2 := (n1 + 1 + rng.Intn(9)) % 10
					p := Params{
						N1: CustomerName(n1),
						N2: CustomerName(n2),
						V:  rng.Int63n(2000) - 500,
					}
					errA := Run(compiled, s, typ, p)
					errB := runSQL(viaSQL, s, typ, p)
					if (errA == nil) != (errB == nil) {
						t.Fatalf("%s op %d %v(%+v): compiled err %v, sql err %v", plat, i, typ, p, errA, errB)
					}
					for _, err := range []error{errA, errB} {
						if err != nil && !errors.Is(err, core.ErrRollback) {
							t.Fatalf("%s op %d %v(%+v): unexpected error %v", plat, i, typ, p, err)
						}
					}
				}

				for _, table := range []string{TableSaving, TableChecking, TableConflict} {
					stateA := dumpTable(t, compiled, table)
					stateB := dumpTable(t, viaSQL, table)
					if len(stateA) != len(stateB) {
						t.Fatalf("%s %s: %d vs %d rows", plat, table, len(stateA), len(stateB))
					}
					for k, v := range stateA {
						if stateB[k] != v {
							t.Fatalf("%s %s[%d]: compiled %d, sql %d", plat, table, k, v, stateB[k])
						}
					}
				}
			}
		})
	}
}

func dumpTable(t *testing.T, db *engine.DB, table string) map[int64]int64 {
	t.Helper()
	out := map[int64]int64{}
	if err := db.ScanLatest(table, func(k core.Value, rec core.Record) bool {
		out[k.Int64()] = rec[1].Int64()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSQLWriteCheckIsProgram1 pins the overdraft-penalty semantics of
// the paper's Program 1.
func TestSQLWriteCheckIsProgram1(t *testing.T) {
	db := testDB(t, core.SnapshotFUW, core.PlatformPostgres)
	// Customer 0: saving 1000, checking 500. A 1200 check is covered
	// (total 1500): no penalty.
	if err := Run(db, StrategySI, WriteCheck, Params{N1: CustomerName(0), V: 1200}); err != nil {
		t.Fatal(err)
	}
	if _, chk := balanceOf(t, db, 0); chk != 500-1200 {
		t.Fatalf("covered check: %d", chk)
	}
	// Customer 1: a 2000 check is not covered: one-cent penalty.
	if err := Run(db, StrategySI, WriteCheck, Params{N1: CustomerName(1), V: 2000}); err != nil {
		t.Fatal(err)
	}
	if _, chk := balanceOf(t, db, 1); chk != 500-2001 {
		t.Fatalf("overdraft check: %d", chk)
	}
}

// TestSQLStrategySemantics: a strategy's rewrites carry the concurrency
// behaviour — the dangerous interleaving conflicts under a repair.
func TestSQLStrategySemantics(t *testing.T) {
	db := testDB(t, core.SnapshotFUW, core.PlatformPostgres)
	name := CustomerName(0)

	// WC begins first (old snapshot) and is held open while TS commits.
	wcTx := db.Begin()
	if err := Run(db, StrategyPromoteWTUpd, TransactSaving, Params{N1: name, V: 500}); err != nil {
		t.Fatal(err)
	}
	err := RunIn(wcTx, StrategyPromoteWTUpd, WriteCheck, Params{N1: name, V: 100})
	if !errors.Is(err, core.ErrSerialization) {
		t.Fatalf("promoted WC vs committed TS: %v", err)
	}
	wcTx.Abort()
}

// TestSQLRollbacks: the programs reproduce the paper's rollback rules.
func TestSQLRollbacks(t *testing.T) {
	db := testDB(t, core.SnapshotFUW, core.PlatformPostgres)
	if err := Run(db, StrategySI, DepositChecking, Params{N1: CustomerName(0), V: -1}); !errors.Is(err, core.ErrRollback) {
		t.Fatalf("negative deposit: %v", err)
	}
	if err := Run(db, StrategySI, TransactSaving, Params{N1: CustomerName(0), V: -5000}); !errors.Is(err, core.ErrRollback) {
		t.Fatalf("overdraw savings: %v", err)
	}
	if err := Run(db, StrategySI, Balance, Params{N1: "ghost"}); !errors.Is(err, core.ErrRollback) {
		t.Fatalf("unknown customer: %v", err)
	}
	if err := Run(db, StrategySI, TxnType(99), Params{}); err == nil {
		t.Fatal("unknown type accepted")
	}
}
