package engine

import (
	"errors"
	"slices"
	"testing"
	"time"

	"sicost/internal/core"
	"sicost/internal/faultinject"
	"sicost/internal/wal"
)

// kvSchema is a minimal two-column table used throughout the tests.
func kvSchema(name string) *core.Schema {
	return &core.Schema{
		Name: name,
		Columns: []core.Column{
			{Name: "K", Kind: core.KindInt, NotNull: true},
			{Name: "V", Kind: core.KindInt, NotNull: true},
		},
		PK: 0,
	}
}

func kv(k, v int64) core.Record { return core.Record{core.Int(k), core.Int(v)} }

// raceDetector is set when the tests run under the race detector
// (race_test.go).
var raceDetector bool

// openKV builds a DB in the given mode/platform with table T preloaded
// with (1,100) and (2,200). No simulated costs: pure semantics tests.
func openKV(t *testing.T, mode core.CCMode, platform core.Platform) *DB {
	t.Helper()
	db := Open(Config{Mode: mode, Platform: platform})
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for k, v := range map[int64]int64{1: 100, 2: 200} {
		if err := tx.Insert("T", kv(k, v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

func mustGetV(t *testing.T, tx *Tx, k int64) int64 {
	t.Helper()
	rec, err := tx.Get("T", core.Int(k))
	if err != nil {
		t.Fatalf("Get(%d): %v", k, err)
	}
	return rec[1].Int64()
}

func mustSetV(t *testing.T, tx *Tx, k, v int64) {
	t.Helper()
	if err := tx.Update("T", core.Int(k), kv(k, v)); err != nil {
		t.Fatalf("Update(%d,%d): %v", k, v, err)
	}
}

func TestBasicCRUDAndVisibility(t *testing.T) {
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)

	// Uncommitted insert invisible to a concurrent snapshot.
	tx1 := db.Begin()
	if err := tx1.Insert("T", kv(3, 300)); err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin()
	if _, err := tx2.Get("T", core.Int(3)); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("uncommitted insert visible: %v", err)
	}
	// But visible to its creator.
	if got := mustGetV(t, tx1, 3); got != 300 {
		t.Fatalf("own insert = %d", got)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	// Still invisible to tx2 (snapshot predates commit).
	if _, err := tx2.Get("T", core.Int(3)); !errors.Is(err, core.ErrNotFound) {
		t.Fatal("snapshot must not move forward")
	}
	tx2.Abort()

	// A fresh snapshot sees it.
	tx3 := db.Begin()
	if got := mustGetV(t, tx3, 3); got != 300 {
		t.Fatalf("committed insert = %d", got)
	}
	// Delete, then a point read fails.
	if err := tx3.Delete("T", core.Int(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx3.Get("T", core.Int(3)); !errors.Is(err, core.ErrNotFound) {
		t.Fatal("own delete must hide the row")
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	tx4 := db.Begin()
	if _, err := tx4.Get("T", core.Int(3)); !errors.Is(err, core.ErrNotFound) {
		t.Fatal("committed delete must hide the row")
	}
	tx4.Abort()
}

func TestRepeatableReads(t *testing.T) {
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)

	reader := db.Begin()
	if got := mustGetV(t, reader, 1); got != 100 {
		t.Fatal("setup")
	}

	writer := db.Begin()
	mustSetV(t, writer, 1, 111)
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}

	// SI: the reader's second read must see the snapshot value.
	if got := mustGetV(t, reader, 1); got != 100 {
		t.Fatalf("non-repeatable read: %d", got)
	}
	reader.Abort()

	fresh := db.Begin()
	if got := mustGetV(t, fresh, 1); got != 111 {
		t.Fatalf("new snapshot = %d", got)
	}
	fresh.Abort()
}

func TestInconsistentReadPrevented(t *testing.T) {
	// A transfer moves 50 from row 1 to row 2; a concurrent reader must
	// see either both effects or neither (here: neither, by snapshot).
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)

	reader := db.Begin()
	v1 := mustGetV(t, reader, 1)

	transfer := db.Begin()
	mustSetV(t, transfer, 1, 50)
	mustSetV(t, transfer, 2, 250)
	if err := transfer.Commit(); err != nil {
		t.Fatal(err)
	}

	v2 := mustGetV(t, reader, 2)
	if v1+v2 != 300 {
		t.Fatalf("inconsistent read: %d + %d", v1, v2)
	}
	reader.Abort()
}

func TestFirstUpdaterWinsAfterCommit(t *testing.T) {
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)

	t1 := db.Begin()
	t2 := db.Begin()
	mustSetV(t, t1, 1, 101)
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	// t2 is concurrent with t1 and writes the same row: must fail.
	err := t2.Update("T", core.Int(1), kv(1, 102))
	if !errors.Is(err, core.ErrSerialization) {
		t.Fatalf("err = %v, want ErrSerialization", err)
	}
	t2.Abort()

	t3 := db.Begin()
	if got := mustGetV(t, t3, 1); got != 101 {
		t.Fatalf("value = %d, want t1's write", got)
	}
	t3.Abort()
}

func TestFUWBlockThenAbortOnCommit(t *testing.T) {
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)

	t1 := db.Begin()
	t2 := db.Begin()
	mustSetV(t, t1, 1, 101) // t1 holds the row lock

	errc := make(chan error, 1)
	go func() {
		errc <- t2.Update("T", core.Int(1), kv(1, 102))
	}()
	select {
	case err := <-errc:
		t.Fatalf("t2 did not block: %v", err)
	case <-time.After(20 * time.Millisecond):
	}

	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; !errors.Is(err, core.ErrSerialization) {
		t.Fatalf("after holder commit: %v, want ErrSerialization", err)
	}
	t2.Abort()
}

func TestFUWBlockThenProceedOnAbort(t *testing.T) {
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)

	t1 := db.Begin()
	t2 := db.Begin()
	mustSetV(t, t1, 1, 101)

	errc := make(chan error, 1)
	go func() {
		errc <- t2.Update("T", core.Int(1), kv(1, 102))
	}()
	time.Sleep(10 * time.Millisecond)

	t1.Abort()
	if err := <-errc; err != nil {
		t.Fatalf("after holder abort, waiter must proceed: %v", err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}

	t3 := db.Begin()
	if got := mustGetV(t, t3, 1); got != 102 {
		t.Fatalf("value = %d, want waiter's write", got)
	}
	t3.Abort()
}

func TestLostUpdatePrevented(t *testing.T) {
	// Two increments race; SI guarantees one aborts rather than losing
	// an update.
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)

	t1 := db.Begin()
	t2 := db.Begin()
	v1 := mustGetV(t, t1, 1)
	v2 := mustGetV(t, t2, 1)
	mustSetV(t, t1, 1, v1+10)
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	err := t2.Update("T", core.Int(1), kv(1, v2+10))
	if !errors.Is(err, core.ErrSerialization) {
		t.Fatalf("lost update not prevented: %v", err)
	}
	t2.Abort()
}

func TestWriteSkewAllowedUnderSI(t *testing.T) {
	// The anomaly the whole paper is about: disjoint writes after
	// overlapping reads both commit under plain SI.
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)

	t1 := db.Begin()
	t2 := db.Begin()
	s1 := mustGetV(t, t1, 1) + mustGetV(t, t1, 2)
	s2 := mustGetV(t, t2, 1) + mustGetV(t, t2, 2)
	if s1 != 300 || s2 != 300 {
		t.Fatal("setup")
	}
	mustSetV(t, t1, 1, -50) // each alone keeps sum >= 0
	mustSetV(t, t2, 2, -50)
	if err := t1.Commit(); err != nil {
		t.Fatalf("t1: %v", err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatalf("t2 must also commit under SI (write skew): %v", err)
	}

	t3 := db.Begin()
	if sum := mustGetV(t, t3, 1) + mustGetV(t, t3, 2); sum != -100 {
		t.Fatalf("final sum = %d; write skew should have corrupted to -100", sum)
	}
	t3.Abort()
}

func TestWriteSkewPreventedUnderSSI(t *testing.T) {
	db := openKV(t, core.SerializableSI, core.PlatformPostgres)

	t1 := db.Begin()
	t2 := db.Begin()
	_ = mustGetV(t, t1, 1)
	_ = mustGetV(t, t1, 2)
	_ = mustGetV(t, t2, 1)
	_ = mustGetV(t, t2, 2)

	err1 := t1.Update("T", core.Int(1), kv(1, -50))
	err2 := t2.Update("T", core.Int(2), kv(2, -50))
	var err3, err4 error
	if err1 == nil {
		err3 = t1.Commit()
	} else {
		t1.Abort()
	}
	if err2 == nil {
		err4 = t2.Commit()
	} else {
		t2.Abort()
	}
	failures := 0
	for _, e := range []error{err1, err2, err3, err4} {
		if errors.Is(e, core.ErrSerialization) {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("SSI allowed write skew: no serialization failure raised")
	}
}

func TestWriteSkewPreventedUnder2PL(t *testing.T) {
	db := openKV(t, core.Strict2PL, core.PlatformPostgres)

	// Run the two halves concurrently with retries; 2PL must serialize
	// them (via blocking and deadlock aborts) so the sum constraint
	// "withdraw only if total >= withdrawal" holds.
	run := func(readK, writeK int64, done chan<- error) {
		for {
			tx := db.Begin()
			a, err := tx.Get("T", core.Int(readK))
			if err != nil {
				tx.Abort()
				if core.IsRetriable(err) {
					continue
				}
				done <- err
				return
			}
			b, err := tx.Get("T", core.Int(writeK))
			if err != nil {
				tx.Abort()
				if core.IsRetriable(err) {
					continue
				}
				done <- err
				return
			}
			total := a[1].Int64() + b[1].Int64()
			if total < 250 {
				tx.Abort()
				done <- nil
				return
			}
			if err := tx.Update("T", core.Int(writeK), kv(writeK, b[1].Int64()-250)); err != nil {
				tx.Abort()
				if core.IsRetriable(err) {
					continue
				}
				done <- err
				return
			}
			if err := tx.Commit(); err != nil {
				if core.IsRetriable(err) {
					continue
				}
				done <- err
				return
			}
			done <- nil
			return
		}
	}
	d1, d2 := make(chan error, 1), make(chan error, 1)
	go run(2, 1, d1)
	go run(1, 2, d2)
	if err := <-d1; err != nil {
		t.Fatal(err)
	}
	if err := <-d2; err != nil {
		t.Fatal(err)
	}

	tx := db.Begin()
	sum := mustGetV(t, tx, 1) + mustGetV(t, tx, 2)
	tx.Abort()
	// Initial sum 300; each withdrawal of 250 requires total >= 250.
	// Serial execution permits exactly one withdrawal: sum = 50.
	if sum != 50 {
		t.Fatalf("2PL let both withdrawals through: sum = %d, want 50", sum)
	}
}

func TestSelectForUpdatePostgresInterleaving(t *testing.T) {
	// §II-C: in PostgreSQL the interleaving begin(T) begin(U)
	// read-sfu(T,x) commit(T) write(U,x) commit(U) is ALLOWED even
	// though it leaves a vulnerable rw edge from T to U.
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)

	T := db.Begin()
	U := db.Begin()
	if _, err := T.ReadForUpdate("T", core.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := T.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := U.Update("T", core.Int(1), kv(1, 999)); err != nil {
		t.Fatalf("PostgreSQL sfu must not block a later writer: %v", err)
	}
	if err := U.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestSelectForUpdateCommercialConflicts(t *testing.T) {
	// The commercial platform treats sfu like an update: the same
	// interleaving must raise a serialization failure for U.
	db := openKV(t, core.SnapshotFUW, core.PlatformCommercial)

	T := db.Begin()
	U := db.Begin()
	if _, err := T.ReadForUpdate("T", core.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := T.Commit(); err != nil {
		t.Fatal(err)
	}
	err := U.Update("T", core.Int(1), kv(1, 999))
	if !errors.Is(err, core.ErrSerialization) {
		t.Fatalf("commercial sfu must conflict with a concurrent writer: %v", err)
	}
	U.Abort()

	// And the other direction: a commercial sfu against a concurrently
	// committed write fails too.
	T2 := db.Begin()
	W := db.Begin()
	mustSetV(t, W, 1, 7)
	if err := W.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := T2.ReadForUpdate("T", core.Int(1)); !errors.Is(err, core.ErrSerialization) {
		t.Fatalf("sfu after concurrent committed write: %v", err)
	}
	T2.Abort()
}

func TestSelectForUpdateBlocksWhileHeld(t *testing.T) {
	for _, platform := range []core.Platform{core.PlatformPostgres, core.PlatformCommercial} {
		db := openKV(t, core.SnapshotFUW, platform)
		T := db.Begin()
		if _, err := T.ReadForUpdate("T", core.Int(1)); err != nil {
			t.Fatal(err)
		}
		U := db.Begin()
		errc := make(chan error, 1)
		go func() { errc <- U.Update("T", core.Int(1), kv(1, 5)) }()
		select {
		case err := <-errc:
			t.Fatalf("%v: writer did not block behind sfu: %v", platform, err)
		case <-time.After(20 * time.Millisecond):
		}
		T.Abort() // releases the lock without a conflict mark
		if err := <-errc; err != nil {
			t.Fatalf("%v: writer after sfu abort: %v", platform, err)
		}
		U.Abort()
		db.Close()
	}
}

func TestDeadlockDetectedUnderSI(t *testing.T) {
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)

	t1 := db.Begin()
	t2 := db.Begin()
	mustSetV(t, t1, 1, 11)
	mustSetV(t, t2, 2, 22)

	errc := make(chan error, 1)
	go func() { errc <- t1.Update("T", core.Int(2), kv(2, 12)) }()
	time.Sleep(10 * time.Millisecond)
	err := t2.Update("T", core.Int(1), kv(1, 21))
	if !errors.Is(err, core.ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	t2.Abort()
	if err := <-errc; err != nil {
		t.Fatalf("survivor: %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestTxDoneSemantics(t *testing.T) {
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)
	tx := db.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, core.ErrTxDone) {
		t.Fatalf("double commit: %v", err)
	}
	if _, err := tx.Get("T", core.Int(1)); !errors.Is(err, core.ErrTxDone) {
		t.Fatalf("use after commit: %v", err)
	}
	tx.Abort() // no-op, must not panic or double-count
	commits, aborts := db.Stats()
	// openKV's loader commit + this commit; no aborts.
	if commits != 2 || aborts != 0 {
		t.Fatalf("stats = %d commits, %d aborts", commits, aborts)
	}
}

func TestAbortRestoresState(t *testing.T) {
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)
	tx := db.Begin()
	mustSetV(t, tx, 1, 999)
	if err := tx.Insert("T", kv(9, 900)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("T", core.Int(2)); err != nil {
		t.Fatal(err)
	}
	tx.Abort()

	chk := db.Begin()
	if got := mustGetV(t, chk, 1); got != 100 {
		t.Fatalf("update survived abort: %d", got)
	}
	if got := mustGetV(t, chk, 2); got != 200 {
		t.Fatalf("delete survived abort: %d", got)
	}
	if _, err := chk.Get("T", core.Int(9)); !errors.Is(err, core.ErrNotFound) {
		t.Fatal("insert survived abort")
	}
	chk.Abort()
}

func TestUpdateValidation(t *testing.T) {
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)
	tx := db.Begin()
	defer tx.Abort()
	if err := tx.Update("T", core.Int(1), kv(2, 5)); err == nil {
		t.Fatal("primary key change accepted")
	}
	if err := tx.Update("T", core.Int(1), core.Record{core.Int(1)}); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if err := tx.Update("T", core.Int(42), kv(42, 5)); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("update missing row: %v", err)
	}
	if err := tx.Update("Missing", core.Int(1), kv(1, 5)); err == nil {
		t.Fatal("missing table accepted")
	}
	if _, err := tx.Get("Missing", core.Int(1)); err == nil {
		t.Fatal("get from missing table accepted")
	}
	if err := tx.Delete("T", core.Int(42)); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("delete missing row: %v", err)
	}
	if err := tx.Insert("T", kv(1, 5)); !errors.Is(err, core.ErrUniqueViolation) {
		t.Fatalf("duplicate PK insert: %v", err)
	}
}

func TestDoubleWriteSameRowInTxn(t *testing.T) {
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)
	tx := db.Begin()
	mustSetV(t, tx, 1, 110)
	mustSetV(t, tx, 1, 120)
	if got := mustGetV(t, tx, 1); got != 120 {
		t.Fatalf("second write lost within txn: %d", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	chk := db.Begin()
	if got := mustGetV(t, chk, 1); got != 120 {
		t.Fatalf("committed value = %d", got)
	}
	chk.Abort()
	// The version chain must not contain two uncommitted leftovers.
}

func TestWALFailureAbortsCommit(t *testing.T) {
	reg := faultinject.New(1)
	db := Open(Config{
		Mode: core.SnapshotFUW, Platform: core.PlatformPostgres,
		WAL: walConfigForTest(), Faults: reg,
	})
	defer db.Close()
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	seed := db.Begin()
	if err := seed.Insert("T", kv(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := reg.Arm(faultinject.Spec{Point: wal.FaultFlush}); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	mustSetV(t, tx, 1, 999)
	if err := tx.Commit(); !errors.Is(err, core.ErrInjected) {
		t.Fatalf("commit with failing WAL: %v", err)
	}
	reg.Disarm(wal.FaultFlush)

	chk := db.Begin()
	if got := mustGetV(t, chk, 1); got != 100 {
		t.Fatalf("failed commit leaked: %d", got)
	}
	chk.Abort()
}

func TestReadOnlyCommitSkipsWAL(t *testing.T) {
	db := Open(Config{
		Mode: core.SnapshotFUW, Platform: core.PlatformPostgres,
		WAL: walConfigForTest(),
	})
	defer db.Close()
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	// DDL skips a log with no device: there is no frame to sync.
	if s := db.WAL().Stats(); s.Syncs != 0 {
		t.Fatalf("CreateTable flushed a log with no device: %+v", s)
	}
	seed := db.Begin()
	if err := seed.Insert("T", kv(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	before := db.WAL().Stats().Records

	ro := db.Begin()
	_ = mustGetV(t, ro, 1)
	if !ro.ReadOnly() {
		t.Fatal("reader must be read-only")
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
	if after := db.WAL().Stats().Records; after != before {
		t.Fatalf("read-only commit wrote %d WAL records", after-before)
	}
}

func TestScanLatest(t *testing.T) {
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)
	var keys []int64
	var sum int64
	err := db.ScanLatest("T", func(k core.Value, rec core.Record) bool {
		keys = append(keys, k.Int64())
		sum += rec[1].Int64()
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != 1 || keys[1] != 2 || sum != 300 {
		t.Fatalf("scan = keys %v sum %d", keys, sum)
	}
	if err := db.ScanLatest("Missing", func(core.Value, core.Record) bool { return true }); err == nil {
		t.Fatal("scan of missing table accepted")
	}
}

// TestScanInKeyOrder: both scans hand rows out in key order, whatever
// order the keys were inserted in and however the row map stores them.
func TestScanInKeyOrder(t *testing.T) {
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)
	tx := db.Begin()
	for _, k := range []int64{50, 7, 33, 3, 41, 12, 99, 64, 25, 18} {
		if err := tx.Insert("T", kv(k, k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	scans := map[string]func(func(core.Value, core.Record) bool) error{
		"ScanLatest": func(fn func(core.Value, core.Record) bool) error { return db.ScanLatest("T", fn) },
		"ScanAsOf":   func(fn func(core.Value, core.Record) bool) error { return db.ScanAsOf("T", db.CommitSeq(), fn) },
	}
	for name, scan := range scans {
		var keys []int64
		if err := scan(func(k core.Value, _ core.Record) bool {
			keys = append(keys, k.Int64())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(keys) != 12 || !slices.IsSorted(keys) {
			t.Fatalf("%s keys = %v, want all 12 in ascending order", name, keys)
		}
	}
}

// TestUniqueIndexAllowsManyNulls: as in SQL, a nullable UNIQUE column
// takes any number of NULLs, and looking a NULL up through the index
// finds nothing; equal non-NULL values still conflict.
func TestUniqueIndexAllowsManyNulls(t *testing.T) {
	db := Open(Config{})
	defer db.Close()
	schema := &core.Schema{
		Name: "N",
		Columns: []core.Column{
			{Name: "K", Kind: core.KindInt, NotNull: true},
			{Name: "Email", Kind: core.KindString},
		},
		Unique: []int{1},
	}
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	insert := func(k int64, email core.Value) error {
		tx := db.Begin()
		if err := tx.Insert("N", core.Record{core.Int(k), email}); err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit()
	}
	for k := int64(1); k <= 2; k++ {
		if err := insert(k, core.Null()); err != nil {
			t.Fatalf("NULL email for row %d: %v", k, err)
		}
	}
	if err := insert(3, core.Str("a@b")); err != nil {
		t.Fatal(err)
	}
	if err := insert(4, core.Str("a@b")); !errors.Is(err, core.ErrUniqueViolation) {
		t.Fatalf("duplicate email: %v, want ErrUniqueViolation", err)
	}
	tx := db.Begin()
	defer tx.Abort()
	if rec, err := tx.GetByIndex("N", "Email", core.Null()); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("GetByIndex(NULL) = %v, %v; want ErrNotFound", rec, err)
	}
	if rec, err := tx.GetByIndex("N", "Email", core.Str("a@b")); err != nil || rec[0] != core.Int(3) {
		t.Fatalf("GetByIndex(a@b) = %v, %v; want row 3", rec, err)
	}
}
