package engine

import (
	"errors"
	"testing"
	"time"

	"sicost/internal/core"
	"sicost/internal/faultinject"
)

func mustLockAudit(t *testing.T, db *DB, held, queued int) {
	t.Helper()
	if h, q := db.LockAudit(); h != held || q != queued {
		t.Fatalf("lock audit = %d held / %d queued, want %d / %d", h, q, held, queued)
	}
}

// blockedUpdate starts tx's update of key 1 on a goroutine and returns
// once it is queued behind the row's holder.
func blockedUpdate(t *testing.T, db *DB, tx *Tx, v int64) <-chan error {
	t.Helper()
	before := db.Contention().Lock.Waits
	done := make(chan error, 1)
	go func() { done <- tx.Update("T", core.Int(1), kv(1, v)) }()
	for deadline := time.Now().Add(5 * time.Second); db.Contention().Lock.Waits == before; {
		select {
		case err := <-done:
			t.Fatalf("update did not block: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("update neither blocked nor returned")
		}
		time.Sleep(50 * time.Microsecond)
	}
	return done
}

// TestLockAuditCountsThinHolds: a write lock that never left its row is
// still a lock the audit sees — while held, and gone after either end
// of the transaction, re-entry (update after select-for-update, second
// update) counted once.
func TestLockAuditCountsThinHolds(t *testing.T) {
	for _, mode := range []core.CCMode{core.SnapshotFUW, core.SerializableSI} {
		t.Run(mode.String(), func(t *testing.T) {
			db := openKV(t, mode, core.PlatformPostgres)
			for i, end := range []func(*Tx) error{(*Tx).Commit, func(tx *Tx) error { tx.Abort(); return nil }} {
				tx := db.Begin()
				defer tx.Abort()
				if _, err := tx.ReadForUpdate("T", core.Int(1)); err != nil {
					t.Fatal(err)
				}
				mustSetV(t, tx, 1, 101)
				mustSetV(t, tx, 1, 102)
				mustSetV(t, tx, 2, 201)
				if err := tx.Insert("T", kv(3+int64(i), 300)); err != nil {
					t.Fatal(err)
				}
				mustLockAudit(t, db, 3, 0)
				if err := end(tx); err != nil {
					t.Fatal(err)
				}
				mustLockAudit(t, db, 0, 0)
			}
			if fast := db.Contention().Lock.FastPath; fast < 10 {
				t.Fatalf("fast-path grants = %d, want every statement's lock counted", fast)
			}
		})
	}
}

// TestThinLockWaiterEjected: a writer queued behind a thin-held row
// inflates the lock and then runs out of time — its lock timeout or its
// transaction deadline. The hold it moved into the table stays the
// owner's; the owner's end releases it there, and the next writer takes
// the row thin again.
func TestThinLockWaiterEjected(t *testing.T) {
	for _, c := range []struct {
		name  string
		bound func(*Tx)
		want  error
	}{
		{"lock-timeout", func(tx *Tx) { tx.db.cfg.LockWaitTimeout = 10 * time.Millisecond }, core.ErrLockTimeout},
		{"tx-deadline", func(tx *Tx) { tx.SetDeadline(time.Now().Add(10 * time.Millisecond)) }, core.ErrTxDeadline},
	} {
		for _, ownerEnd := range []string{"commit", "abort"} {
			t.Run(c.name+"/owner-"+ownerEnd, func(t *testing.T) {
				db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)
				owner := db.Begin()
				mustSetV(t, owner, 1, 101)
				waiter := db.Begin()
				c.bound(waiter)
				if err := waiter.Update("T", core.Int(1), kv(1, 102)); !errors.Is(err, c.want) {
					t.Fatalf("waiter: %v, want %v", err, c.want)
				}
				mustLockAudit(t, db, 1, 0)
				waiter.Abort()
				mustLockAudit(t, db, 1, 0)
				want := int64(101)
				if ownerEnd == "commit" {
					if err := owner.Commit(); err != nil {
						t.Fatal(err)
					}
				} else {
					owner.Abort()
					want = 100
				}
				mustLockAudit(t, db, 0, 0)
				next := db.Begin()
				if got := mustGetV(t, next, 1); got != want {
					t.Fatalf("row 1 = %d, want %d", got, want)
				}
				mustSetV(t, next, 1, 103)
				mustLockAudit(t, db, 1, 0)
				if err := next.Commit(); err != nil {
					t.Fatal(err)
				}
				mustLockAudit(t, db, 0, 0)
			})
		}
	}
}

// TestThinLockOwnerEjectedByDeadline: the owner of an inflated lock runs
// past its deadline; its next statement fails, the rollback releases the
// lock through the table and the writer queued behind it proceeds — the
// owner aborted, so first-updater-wins has nothing to object to.
func TestThinLockOwnerEjectedByDeadline(t *testing.T) {
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)
	owner := db.Begin()
	owner.SetDeadline(time.Now().Add(20 * time.Millisecond))
	mustSetV(t, owner, 1, 101)
	waiter := db.Begin()
	done := blockedUpdate(t, db, waiter, 102)
	mustLockAudit(t, db, 1, 1)

	time.Sleep(time.Until(owner.Deadline()) + time.Millisecond)
	if err := owner.Update("T", core.Int(2), kv(2, 201)); !errors.Is(err, core.ErrTxDeadline) {
		t.Fatalf("owner past its deadline: %v", err)
	}
	owner.Abort()
	if err := <-done; err != nil {
		t.Fatalf("waiter after the owner's rollback: %v", err)
	}
	mustLockAudit(t, db, 1, 0)
	if err := waiter.Commit(); err != nil {
		t.Fatal(err)
	}
	mustLockAudit(t, db, 0, 0)
	check := db.Begin()
	defer check.Abort()
	if got := mustGetV(t, check, 1); got != 102 {
		t.Fatalf("row 1 = %d, want the waiter's 102", got)
	}
}

// TestFaultLockAcquireGuardsBothPaths: the lock-acquire fault point sits
// in front of the owner word and in front of the table alike — the first
// hit here is a request that would have been granted thin, the second
// one that would have inflated and queued.
func TestFaultLockAcquireGuardsBothPaths(t *testing.T) {
	db, reg := openFaultyKV(t, core.SnapshotFUW)
	arm := func() {
		t.Helper()
		if err := reg.Arm(faultinject.Spec{Point: FaultLockAcquire, Count: 1, Action: faultinject.ActError}); err != nil {
			t.Fatal(err)
		}
	}
	arm()
	owner := db.Begin()
	if err := owner.Update("T", core.Int(1), kv(1, 101)); !errors.Is(err, core.ErrInjected) {
		t.Fatalf("uncontended request: %v, want ErrInjected", err)
	}
	mustLockAudit(t, db, 0, 0)
	owner.Abort()

	owner = db.Begin()
	mustSetV(t, owner, 1, 101)
	arm()
	contender := db.Begin()
	if err := contender.Update("T", core.Int(1), kv(1, 102)); !errors.Is(err, core.ErrInjected) {
		t.Fatalf("contended request: %v, want ErrInjected", err)
	}
	contender.Abort()
	if waits := db.Contention().Lock.Waits; waits != 0 {
		t.Fatalf("the faulted request queued (%d waits)", waits)
	}
	if fired := reg.Fired(FaultLockAcquire); fired != 2 {
		t.Fatalf("fault fired %d times, want 2", fired)
	}
	if err := owner.Commit(); err != nil {
		t.Fatal(err)
	}
	mustLockAudit(t, db, 0, 0)
}

// TestUpdateDoesNotLeakItsRecord pins what escape analysis is told about
// Update's record parameter: the engine stores a copy, so the caller's
// literal stays on its stack. A repeat update of a row costs the copy
// and nothing else; a first update adds the version (and, amortised to
// nothing, the write list).
func TestUpdateDoesNotLeakItsRecord(t *testing.T) {
	const rows = 256
	db := Open(Config{Mode: core.SnapshotFUW})
	defer db.Close()
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	seed := db.Begin()
	for k := int64(0); k < rows; k++ {
		if err := seed.Insert("T", core.Record{core.Int(k), core.Int(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	tx := db.Begin()
	defer tx.Abort()
	k := int64(0)
	first := testing.AllocsPerRun(rows-1, func() {
		if err := tx.Update("T", core.Int(k), core.Record{core.Int(k), core.Int(k + 1)}); err != nil {
			t.Fatal(err)
		}
		k++
	})
	again := testing.AllocsPerRun(100, func() {
		if err := tx.Update("T", core.Int(0), core.Record{core.Int(0), core.Int(7)}); err != nil {
			t.Fatal(err)
		}
	})
	if first > 2 || again > 1 {
		t.Fatalf("Update of a literal record allocates %.0f objects (repeat: %.0f), want at most 2 (1)", first, again)
	}
}
