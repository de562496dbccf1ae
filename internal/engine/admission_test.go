package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sicost/internal/admission"
	"sicost/internal/core"
	"sicost/internal/wal"
)

// admDB builds a DB with a fixed-limit admission gate (controller
// effectively frozen by a huge interval) and table T preloaded.
func admDB(t *testing.T, limit, maxQueue int) *DB {
	t.Helper()
	db := Open(Config{
		Mode: core.SnapshotFUW,
		Admission: &admission.Config{
			InitialLimit: limit, MinLimit: limit, MaxLimit: limit,
			MaxQueue: maxQueue, Interval: time.Hour,
		},
	})
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for k := int64(0); k < 8; k++ {
		if err := tx.Insert("T", kv(k, k*100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestAdmissionLimitsConcurrency(t *testing.T) {
	db := admDB(t, 2, 8)
	defer db.Close()

	// Two admitted transactions fill the gate.
	tx1, tx2 := db.Begin(), db.Begin()
	if _, err := tx1.Get("T", core.Int(1)); err != nil {
		t.Fatal(err)
	}
	s := db.Admission().Stats()
	if s.Gate.InFlight != 2 {
		t.Fatalf("inflight = %d, want 2", s.Gate.InFlight)
	}

	// The third queues; it is admitted once a slot frees.
	done := make(chan error, 1)
	go func() {
		tx3 := db.Begin()
		_, err := tx3.Get("T", core.Int(1))
		tx3.Abort()
		done <- err
	}()
	waitCond(t, func() bool { return db.Admission().Stats().Gate.QueueDepth == 1 })
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("queued begin: %v", err)
	}
	tx2.Abort()
	if s := db.Admission().Stats(); s.Gate.InFlight != 0 {
		t.Fatalf("inflight after drain = %d", s.Gate.InFlight)
	}
}

func TestAdmissionShedsWithOverload(t *testing.T) {
	db := admDB(t, 1, 1)
	defer db.Close()

	tx1 := db.Begin() // holds the slot
	queued := make(chan error, 1)
	go func() {
		tx := db.Begin()
		err := tx.Update("T", core.Int(1), kv(1, 1))
		tx.Abort()
		queued <- err
	}()
	waitCond(t, func() bool { return db.Admission().Stats().Gate.QueueDepth == 1 })

	// Queue full: this Begin is shed. The handle is poisoned with the
	// retriable ErrOverload on every statement and on Commit.
	shed := db.Begin()
	if _, err := shed.Get("T", core.Int(1)); !errors.Is(err, core.ErrOverload) {
		t.Fatalf("shed statement: got %v, want ErrOverload", err)
	}
	if err := shed.Commit(); !errors.Is(err, core.ErrOverload) {
		t.Fatalf("shed commit: got %v, want ErrOverload", err)
	}
	if !core.IsRetriable(core.ErrOverload) {
		t.Fatal("ErrOverload must be retriable")
	}
	if s := db.Admission().Stats(); s.Gate.Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", s.Gate.Shed)
	}
	tx1.Commit()
	if err := <-queued; err != nil {
		t.Fatalf("queued txn: %v", err)
	}
}

// TestAdmissionCloseWakesQueuedBegins is the shutdown-drain regression
// test (run under -race by `make race`): Close must wake every Begin
// queued at the gate with ErrShuttingDown — no goroutine may stay
// parked and no slot may leak — even while other Begins race in.
func TestAdmissionCloseWakesQueuedBegins(t *testing.T) {
	db := admDB(t, 2, 64)

	// Occupy both slots so every following Begin queues.
	held := []*Tx{db.Begin(), db.Begin()}

	const racers = 32
	var wg sync.WaitGroup
	var admitted, rejected atomic.Int64
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := db.Begin()
			_, err := tx.Get("T", core.Int(1))
			switch {
			case err == nil:
				admitted.Add(1)
			case errors.Is(err, core.ErrShuttingDown):
				rejected.Add(1)
			default:
				t.Errorf("raced begin: unexpected %v", err)
			}
			tx.Abort()
		}()
	}
	// Wait until the queue has genuinely formed, then race Close
	// against the remaining Begins and the holders' aborts.
	waitCond(t, func() bool { return db.Admission().Stats().Gate.QueueDepth > 0 })
	closed := make(chan struct{})
	go func() { db.Close(); close(closed) }()
	for _, tx := range held {
		tx.Abort()
	}
	wg.Wait()
	<-closed

	if admitted.Load()+rejected.Load() != racers {
		t.Fatalf("admitted %d + rejected %d != %d", admitted.Load(), rejected.Load(), racers)
	}
	s := db.Admission().Stats()
	if s.Gate.InFlight != 0 || s.Gate.QueueDepth != 0 {
		t.Fatalf("gate leak after close: %+v", s.Gate)
	}
}

func TestDeadlineExpiresBetweenStatements(t *testing.T) {
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)
	defer db.Close()

	tx := db.Begin()
	tx.SetDeadline(time.Now().Add(5 * time.Millisecond))
	if _, err := tx.Get("T", core.Int(1)); err != nil {
		t.Fatalf("statement before deadline: %v", err)
	}
	time.Sleep(10 * time.Millisecond)
	if _, err := tx.Get("T", core.Int(2)); !errors.Is(err, core.ErrTxDeadline) {
		t.Fatalf("statement past deadline: got %v, want ErrTxDeadline", err)
	}
	// The handle is poisoned; Commit rolls back and reports the cause.
	if err := tx.Commit(); !errors.Is(err, core.ErrTxDeadline) {
		t.Fatalf("commit past deadline: got %v", err)
	}
	snap := db.TxnMetrics()
	if snap.Aborts[core.AbortDeadline] != 1 {
		t.Fatalf("AbortDeadline count = %d, want 1 (aborts: %v)", snap.Aborts[core.AbortDeadline], snap.Aborts)
	}
}

func TestDeadlineBoundsLockWait(t *testing.T) {
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)
	defer db.Close()

	holder := db.Begin()
	if err := holder.Update("T", core.Int(1), kv(1, 101)); err != nil {
		t.Fatal(err)
	}

	waiter := db.Begin()
	waiter.SetDeadline(time.Now().Add(10 * time.Millisecond))
	start := time.Now()
	err := waiter.Update("T", core.Int(1), kv(1, 102))
	if !errors.Is(err, core.ErrTxDeadline) {
		t.Fatalf("lock wait past deadline: got %v, want ErrTxDeadline", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("deadline did not bound the wait: %v", el)
	}
	waiter.Abort()
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	if snap := db.TxnMetrics(); snap.Aborts[core.AbortDeadline] != 1 {
		t.Fatalf("AbortDeadline count = %d (aborts: %v)", snap.Aborts[core.AbortDeadline], snap.Aborts)
	}
	held, queued := db.LockAudit()
	if held != 0 || queued != 0 {
		t.Fatalf("lock leak: held=%d queued=%d", held, queued)
	}
}

func TestLockTimeoutStillLockTimeout(t *testing.T) {
	// With a lock timeout tighter than the deadline, the binding bound
	// is the lock timeout and the error class must stay retriable.
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)
	defer db.Close()
	db.cfg.LockWaitTimeout = 5 * time.Millisecond

	holder := db.Begin()
	if err := holder.Update("T", core.Int(1), kv(1, 101)); err != nil {
		t.Fatal(err)
	}
	waiter := db.Begin()
	waiter.SetDeadline(time.Now().Add(time.Minute))
	if err := waiter.Update("T", core.Int(1), kv(1, 102)); !errors.Is(err, core.ErrLockTimeout) {
		t.Fatalf("got %v, want ErrLockTimeout", err)
	}
	waiter.Abort()
	holder.Abort()
}

func TestSetDefaultTxDeadline(t *testing.T) {
	db := Open(Config{Mode: core.SnapshotFUW})
	defer db.Close()
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	db.SetDefaultTxDeadline(5 * time.Millisecond)
	tx := db.Begin()
	if tx.Deadline().IsZero() {
		t.Fatal("default deadline not stamped")
	}
	time.Sleep(10 * time.Millisecond)
	if err := tx.Insert("T", kv(1, 1)); !errors.Is(err, core.ErrTxDeadline) {
		t.Fatalf("got %v, want ErrTxDeadline", err)
	}
	tx.Abort()
	// Disarmed, the next Begin carries no deadline; the expired handle
	// kept the one it began with.
	db.SetDefaultTxDeadline(0)
	tx = db.Begin()
	defer tx.Abort()
	if !tx.Deadline().IsZero() {
		t.Fatalf("disarmed default still stamped %v", tx.Deadline())
	}
}

// TestDeadlineDuringFlushGroupSync covers the WAL flush-group wait: a
// sync commit whose record is still queued behind another committer's
// flush when the deadline fires must withdraw and abort cleanly —
// versions unstamped, sequencer not wedged, nothing durable — while a
// record already claimed by a flush window completes fully durable.
func TestDeadlineDuringFlushGroupSync(t *testing.T) {
	dev := newMemLog(t)
	db := Open(Config{
		Mode: core.SnapshotFUW,
		WAL:  wal.Config{Device: dev, FsyncLatency: 60 * time.Millisecond},
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

	// tx1 leads its own flush: ~60ms in the simulated sync.
	tx1 := db.Begin()
	if err := tx1.Update("T", core.Int(1), kv(1, 101)); err != nil {
		t.Fatal(err)
	}
	tx1Done := make(chan error, 1)
	go func() { tx1Done <- tx1.Commit() }()
	time.Sleep(10 * time.Millisecond) // let the flush window claim tx1's record

	// tx2's record is queued while tx1 leads; under a deadline it does
	// not wait in line to lead, its deadline fires mid-wait and the
	// record is withdrawn.
	tx2 := db.Begin()
	if err := tx2.Insert("T", kv(2, 200)); err != nil {
		t.Fatal(err)
	}
	tx2.SetDeadline(time.Now().Add(15 * time.Millisecond))
	if err := tx2.Commit(); !errors.Is(err, core.ErrTxDeadline) {
		t.Fatalf("flush-wait commit: got %v, want ErrTxDeadline", err)
	}

	// tx1 was already in flight: it must complete durable.
	if err := <-tx1Done; err != nil {
		t.Fatalf("in-flight commit: %v", err)
	}
	if got, want := db.CommitSeq(), tx1.CommitCSN()+1; got != want {
		t.Fatalf("published %d, want %d: tx2's CSN as an empty slot behind tx1's", got, want)
	}

	// The sequencer is not wedged (tx2's CSN published as empty slot)
	// and tx2's write is fully rolled back.
	tx3 := db.Begin()
	if _, err := tx3.Get("T", core.Int(2)); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("withdrawn write visible: err=%v", err)
	}
	if err := tx3.Update("T", core.Int(1), kv(1, 102)); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatalf("post-withdraw commit: %v", err)
	}

	// Recovery from the device must see tx1 and tx3 but never tx2:
	// fully durable or cleanly aborted, no half-published state.
	rdb, _, err := Recover(dev, Config{Mode: core.SnapshotFUW})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rdb.Close()
	rtx := rdb.Begin()
	if rec, err := rtx.Get("T", core.Int(1)); err != nil || rec[1].Int64() != 102 {
		t.Fatalf("recovered row 1 = %v, %v; want 102", rec, err)
	}
	if _, err := rtx.Get("T", core.Int(2)); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("withdrawn commit resurrected after recovery: err=%v", err)
	}
	rtx.Abort()
}

// TestDeadlineDuringFlushGroupInFlight: when the deadline fires after
// the record has been claimed by a flush window (withdraw loses), the
// commit must wait out the verdict and succeed — late but fully
// durable, never half-published.
func TestDeadlineDuringFlushGroupInFlight(t *testing.T) {
	dev := newMemLog(t)
	db := Open(Config{
		Mode: core.SnapshotFUW,
		WAL:  wal.Config{Device: dev, FsyncLatency: 40 * time.Millisecond},
	})
	defer db.Close()
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	pre := db.WAL().Stats() // the schema frame's window

	tx := db.Begin()
	if err := tx.Insert("T", kv(1, 100)); err != nil {
		t.Fatal(err)
	}
	// The deadline expires inside the 40ms flush, but no flush was
	// running when the record was enqueued, so its committer leads: it
	// is in flight, there is nothing to withdraw, and the commit
	// completes.
	tx.SetDeadline(time.Now().Add(10 * time.Millisecond))
	if err := tx.Commit(); err != nil {
		t.Fatalf("in-flight commit past deadline: %v", err)
	}
	if err := db.WaitDurable(tx.CommitCSN()); err != nil {
		t.Fatalf("durability: %v", err)
	}
	if s := db.WAL().Stats(); s.LedFlushes-pre.LedFlushes != 1 {
		t.Fatalf("stats %+v after %+v; want the one window flushed by its committer", s, pre)
	}

	rdb, _, err := Recover(dev, Config{Mode: core.SnapshotFUW})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rdb.Close()
	rtx := rdb.Begin()
	if rec, err := rtx.Get("T", core.Int(1)); err != nil || rec[1].Int64() != 100 {
		t.Fatalf("recovered row = %v, %v; want 100", rec, err)
	}
	rtx.Abort()
}

// TestDeadlineAsyncCommitNeverHalfPublished: an async commit checks the
// deadline before publishing; once published it owes durability and the
// deadline can no longer tear it. Either outcome is all-or-nothing.
func TestDeadlineAsyncCommitNeverHalfPublished(t *testing.T) {
	dev := newMemLog(t)
	db := Open(Config{
		Mode:        core.SnapshotFUW,
		WAL:         wal.Config{Device: dev, FsyncLatency: 30 * time.Millisecond},
		AsyncCommit: true,
	})
	defer db.Close()
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}

	// Expired before commit: aborts cleanly, nothing published.
	tx1 := db.Begin()
	if err := tx1.Insert("T", kv(1, 100)); err != nil {
		t.Fatal(err)
	}
	tx1.SetDeadline(time.Now().Add(-time.Millisecond))
	if err := tx1.Commit(); !errors.Is(err, core.ErrTxDeadline) {
		t.Fatalf("expired async commit: got %v, want ErrTxDeadline", err)
	}

	// Deadline expiring during the flush: the commit already published
	// and returns success; the durability future resolves.
	tx2 := db.Begin()
	if err := tx2.Insert("T", kv(2, 200)); err != nil {
		t.Fatal(err)
	}
	tx2.SetDeadline(time.Now().Add(5 * time.Millisecond))
	if err := tx2.Commit(); err != nil {
		t.Fatalf("async commit: %v", err)
	}
	if err := <-tx2.Durable(); err != nil {
		t.Fatalf("durability future: %v", err)
	}

	rdb, _, err := Recover(dev, Config{Mode: core.SnapshotFUW})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rdb.Close()
	rtx := rdb.Begin()
	if _, err := rtx.Get("T", core.Int(1)); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("aborted async commit resurrected: err=%v", err)
	}
	if rec, err := rtx.Get("T", core.Int(2)); err != nil || rec[1].Int64() != 200 {
		t.Fatalf("recovered row 2 = %v, %v; want 200", rec, err)
	}
	rtx.Abort()
}

func waitCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 2s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
