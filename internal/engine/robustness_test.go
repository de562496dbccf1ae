package engine

import (
	"errors"
	"sync"
	"testing"
	"time"

	"sicost/internal/core"
	"sicost/internal/faultinject"
	"sicost/internal/storage"
)

// openFaultyKV is openKV with a fault registry wired in (specs are armed
// by the caller after the load, so seeding runs fault-free).
func openFaultyKV(t *testing.T, mode core.CCMode) (*DB, *faultinject.Registry) {
	t.Helper()
	reg := faultinject.New(1)
	db := Open(Config{Mode: mode, Platform: core.PlatformPostgres, Faults: reg})
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
	return db, reg
}

func TestLockWaitTimeout(t *testing.T) {
	db := Open(Config{Mode: core.Strict2PL, Platform: core.PlatformPostgres,
		LockWaitTimeout: 20 * time.Millisecond})
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

	holder := db.Begin()
	mustSetV(t, holder, 1, 101)

	waiter := db.Begin()
	start := time.Now()
	err := waiter.Update("T", core.Int(1), kv(1, 102))
	elapsed := time.Since(start)
	if !errors.Is(err, core.ErrLockTimeout) {
		t.Fatalf("blocked update: %v, want ErrLockTimeout", err)
	}
	if elapsed < 15*time.Millisecond {
		t.Fatalf("timed out after only %v", elapsed)
	}
	if !core.IsRetriable(err) {
		t.Fatal("lock timeout must be retriable")
	}
	if core.ClassifyAbort(err) != core.AbortLockTimeout {
		t.Fatalf("abort class = %v", core.ClassifyAbort(err))
	}
	waiter.Abort()

	// The holder is unaffected; after its commit a fresh writer gets the
	// lock immediately.
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	again := db.Begin()
	if err := again.Update("T", core.Int(1), kv(1, 103)); err != nil {
		t.Fatalf("post-timeout acquire: %v", err)
	}
	if err := again.Commit(); err != nil {
		t.Fatal(err)
	}
	if held, queued := db.LockAudit(); held != 0 || queued != 0 {
		t.Fatalf("lock leak after timeout: %d held, %d queued", held, queued)
	}
}

// TestLockWaitTimeoutPerTx overrides the database default on one
// transaction: an untimed waiter keeps waiting while the timed one
// gives up.
func TestCloseDrainsInflight(t *testing.T) {
	db := Open(Config{Mode: core.SnapshotFUW, Platform: core.PlatformPostgres})
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

	slow := db.Begin()
	mustSetV(t, slow, 1, 101)

	closed := make(chan struct{})
	go func() {
		db.Close()
		close(closed)
	}()
	// Close must block while slow is alive.
	select {
	case <-closed:
		t.Fatal("Close returned with a transaction in flight")
	case <-time.After(20 * time.Millisecond):
	}
	// New work is rejected while draining.
	rej := db.Begin()
	if err := rej.Insert("T", kv(9, 9)); !errors.Is(err, core.ErrShuttingDown) {
		t.Fatalf("begin during drain: %v, want ErrShuttingDown", err)
	}
	if err := rej.Commit(); !errors.Is(err, core.ErrShuttingDown) {
		t.Fatalf("commit of rejected tx: %v, want ErrShuttingDown", err)
	}
	if core.IsRetriable(core.ErrShuttingDown) {
		t.Fatal("ErrShuttingDown must not be retriable")
	}
	// The in-flight transaction finishes normally; Close then returns.
	if err := slow.Commit(); err != nil {
		t.Fatalf("in-flight commit during drain: %v", err)
	}
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return after the last transaction finished")
	}
	// Idempotent.
	db.Close()
}

func TestCloseConcurrentWithWorkload(t *testing.T) {
	db := Open(Config{Mode: core.SnapshotFUW, Platform: core.PlatformPostgres})
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	seed := db.Begin()
	for k := int64(0); k < 8; k++ {
		if err := seed.Insert("T", kv(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx := db.Begin()
				k := int64((w + i) % 8)
				err := tx.Update("T", core.Int(k), kv(k, int64(i)))
				if err == nil {
					err = tx.Commit()
				}
				if err != nil {
					tx.Abort()
					if errors.Is(err, core.ErrShuttingDown) {
						return
					}
				}
			}
		}(w)
	}
	time.Sleep(10 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		db.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung under concurrent workload")
	}
	close(stop)
	wg.Wait()
}

func TestFaultPointsAbortCleanly(t *testing.T) {
	cases := []struct {
		name  string
		point string
		// op drives one transaction into the fault; returns the error.
		op func(db *DB) error
	}{
		{"begin", FaultBegin, func(db *DB) error {
			tx := db.Begin()
			defer tx.Abort()
			if err := tx.Insert("T", kv(9, 9)); err != nil {
				return err
			}
			return tx.Commit()
		}},
		{"lock-acquire", FaultLockAcquire, func(db *DB) error {
			tx := db.Begin()
			defer tx.Abort()
			if err := tx.Update("T", core.Int(1), kv(1, 1)); err != nil {
				return err
			}
			return tx.Commit()
		}},
		{"commit-stamp", FaultCommitStamp, func(db *DB) error {
			tx := db.Begin()
			defer tx.Abort()
			if err := tx.Update("T", core.Int(1), kv(1, 1)); err != nil {
				return err
			}
			return tx.Commit()
		}},
		{"row-read", storage.FaultRowRead, func(db *DB) error {
			tx := db.Begin()
			defer tx.Abort()
			_, err := tx.Get("T", core.Int(1))
			if err != nil {
				return err
			}
			return tx.Commit()
		}},
		{"row-write", storage.FaultRowWrite, func(db *DB) error {
			tx := db.Begin()
			defer tx.Abort()
			if err := tx.Update("T", core.Int(1), kv(1, 1)); err != nil {
				return err
			}
			return tx.Commit()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Under 2PL every lock request enters the table; under SI
			// the lock-acquire point guards the row's owner word.
			for _, mode := range []core.CCMode{core.Strict2PL, core.SnapshotFUW} {
				t.Run(mode.String(), func(t *testing.T) { faultAbortsCleanly(t, mode, tc.point, tc.op) })
			}
		})
	}
}

// faultAbortsCleanly arms point once, drives op into it and checks that
// the transaction died without leaving a lock, and that the engine works
// afterwards.
func faultAbortsCleanly(t *testing.T, mode core.CCMode, point string, op func(db *DB) error) {
	db, reg := openFaultyKV(t, mode)
	if err := reg.Arm(faultinject.Spec{Point: point, Count: 1, Action: faultinject.ActError}); err != nil {
		t.Fatal(err)
	}
	err := op(db)
	if !errors.Is(err, core.ErrInjected) {
		t.Fatalf("%s: got %v, want ErrInjected", point, err)
	}
	if reg.Fired(point) != 1 {
		t.Fatalf("%s fired %d times", point, reg.Fired(point))
	}
	if held, queued := db.LockAudit(); held != 0 || queued != 0 {
		t.Fatalf("%s leaked locks: %d held, %d queued", point, held, queued)
	}
	// The engine is healthy afterwards (Count=1 exhausted).
	if err := op(db); err != nil {
		t.Fatalf("%s: clean rerun failed: %v", point, err)
	}
}

// TestFaultKeyFilter pins the filtered-injection path through the full
// stack: only reads of the targeted key fail.
func TestFaultKeyFilter(t *testing.T) {
	db, reg := openFaultyKV(t, core.SnapshotFUW)
	key := core.Int(2)
	if err := reg.Arm(faultinject.Spec{
		Point: storage.FaultRowRead, Table: "T", Key: &key, Action: faultinject.ActError,
	}); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	defer tx.Abort()
	if _, err := tx.Get("T", core.Int(1)); err != nil {
		t.Fatalf("untargeted key failed: %v", err)
	}
	if _, err := tx.Get("T", core.Int(2)); !errors.Is(err, core.ErrInjected) {
		t.Fatalf("targeted key: %v, want ErrInjected", err)
	}
}

// TestCSNDelayPointsAreDelayOnly arms error specs against the
// post-commit-point hooks: they must not fire (the commit is already
// visible there), and the commit must succeed.
func TestCSNDelayPointsAreDelayOnly(t *testing.T) {
	db, reg := openFaultyKV(t, core.SnapshotFUW)
	for _, p := range []string{FaultCSNAlloc, FaultCSNPublish} {
		if err := reg.Arm(faultinject.Spec{Point: p, Action: faultinject.ActError}); err != nil {
			t.Fatal(err)
		}
	}
	tx := db.Begin()
	mustSetV(t, tx, 1, 111)
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit with error specs on delay-only points: %v", err)
	}
	if reg.Fired(FaultCSNAlloc) != 0 || reg.Fired(FaultCSNPublish) != 0 {
		t.Fatal("error specs fired at delay-only points")
	}
	reg.Reset()
	for _, p := range []string{FaultCSNAlloc, FaultCSNPublish} {
		if err := reg.Arm(faultinject.Spec{Point: p, Action: faultinject.ActDelay, Delay: 5 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	tx2 := db.Begin()
	mustSetV(t, tx2, 1, 112)
	start := time.Now()
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 8*time.Millisecond {
		t.Fatalf("delay specs did not stall the commit (took %v)", d)
	}
}
