package engine

import (
	"sync"
	"testing"
	"time"

	"sicost/internal/core"
	"sicost/internal/storage"
	"sicost/internal/trace"
)

// traceDB builds a DB with a deterministic-clock recorder installed and
// table T preloaded with rows [0, rows). The seed transaction's events
// are drained away so tests see only their own traffic.
func traceDB(t *testing.T, mode core.CCMode, rows int64) (*DB, *trace.Recorder) {
	t.Helper()
	rec := trace.New(trace.Options{Clock: trace.CounterClock()})
	db := Open(Config{Mode: mode, Platform: core.PlatformPostgres})
	db.SetTracer(rec)
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for k := int64(0); k < rows; k++ {
		if err := tx.Insert("T", kv(k, k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rec.Drain()
	t.Cleanup(db.Close)
	return db, rec
}

// countKinds tallies an event stream by kind.
func countKinds(evs []trace.Event) map[trace.Kind]int {
	m := make(map[trace.Kind]int)
	for _, ev := range evs {
		m[ev.Kind]++
	}
	return m
}

func TestTraceCommitLifecycle(t *testing.T) {
	db, rec := traceDB(t, core.SnapshotFUW, 4)
	tx := db.Begin()
	if _, err := tx.Get("T", core.Int(0)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("T", core.Int(1), kv(1, 99)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	evs := rec.Drain()
	if err := trace.Validate(evs); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	kinds := countKinds(evs)
	for _, want := range []trace.Kind{trace.EvBegin, trace.EvSnapshot, trace.EvRead, trace.EvWrite, trace.EvCommit} {
		if kinds[want] != 1 {
			t.Fatalf("kind %s count = %d, want 1 (stream: %+v)", want, kinds[want], evs)
		}
	}
	// The commit event carries the allocated CSN (seed committed CSN 1).
	last := evs[len(evs)-1]
	if last.Kind != trace.EvCommit || last.CSN != 2 {
		t.Fatalf("last event = %+v, want commit with CSN 2", last)
	}
	m := db.TxnMetrics()
	if m.Commits != 2 { // seed + this one
		t.Fatalf("commits = %d, want 2", m.Commits)
	}
}

// TestTraceCarriesCommitInfo: the read-ver, write-ver and commit events
// of one transaction are everything a checker is told about it — the
// snapshot, the version read (own writes excluded), the version created
// at the commit CSN, and the application tag on the terminal event.
func TestTraceCarriesCommitInfo(t *testing.T) {
	db, rec := traceDB(t, core.SnapshotFUW, 4)
	tx := db.Begin()
	tx.SetTag("demo")
	if _, err := tx.Get("T", core.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("T", core.Int(2), kv(2, 222)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Get("T", core.Int(2)); err != nil { // own write: no read-ver
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var begin, commit trace.Event
	var reads, writes []trace.Event
	for _, ev := range rec.Drain() {
		switch ev.Kind {
		case trace.EvBegin:
			begin = ev
		case trace.EvReadVer:
			reads = append(reads, ev)
		case trace.EvWriteVer:
			writes = append(writes, ev)
		case trace.EvCommit:
			commit = ev
		}
	}
	if commit.Tx != tx.ID() || commit.Tag != "demo" {
		t.Fatalf("commit = %+v", commit)
	}
	if len(reads) != 1 || reads[0].Table != "T" || reads[0].Key != core.Int(1) || reads[0].CSN != begin.CSN {
		t.Fatalf("reads = %+v (snapshot %d)", reads, begin.CSN)
	}
	if len(writes) != 1 || writes[0].Key != core.Int(2) || writes[0].CSN != commit.CSN {
		t.Fatalf("writes = %+v", writes)
	}
	if commit.CSN <= begin.CSN {
		t.Fatalf("CSNs: start %d commit %d", begin.CSN, commit.CSN)
	}

	// An abort is terminal too, and carries the tag the same way.
	ab := db.Begin()
	ab.SetTag("gone")
	ab.Abort()
	evs := rec.Drain()
	if last := evs[len(evs)-1]; last.Kind != trace.EvAbort || last.Tag != "gone" {
		t.Fatalf("abort = %+v", last)
	}
}

func TestTraceConflictAndAbortTaxonomy(t *testing.T) {
	db, rec := traceDB(t, core.SnapshotFUW, 4)

	// t1 snapshots, then t2 updates row 0 and commits, then t1 updates
	// row 0: First-Updater-Wins serialization failure for t1.
	t1 := db.Begin()
	t2 := db.Begin()
	if err := t2.Update("T", core.Int(0), kv(0, 7)); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	err := t1.Update("T", core.Int(0), kv(0, 8))
	if err != core.ErrSerialization {
		t.Fatalf("err = %v, want ErrSerialization", err)
	}
	if err := t1.Commit(); err != core.ErrSerialization {
		t.Fatalf("commit err = %v, want ErrSerialization", err)
	}

	evs := rec.Drain()
	if err := trace.Validate(evs); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	var conflict, abort *trace.Event
	for i := range evs {
		switch evs[i].Kind {
		case trace.EvConflict:
			conflict = &evs[i]
		case trace.EvAbort:
			abort = &evs[i]
		}
	}
	if conflict == nil || conflict.Reason != trace.ConflictFUW || conflict.Key != core.Int(0) {
		t.Fatalf("FUW conflict event missing or wrong: %+v", conflict)
	}
	if abort == nil || abort.Reason != uint8(core.AbortSerialization) {
		t.Fatalf("abort event missing or unattributed: %+v", abort)
	}

	m := db.TxnMetrics()
	if m.Aborts[core.AbortSerialization] != 1 {
		t.Fatalf("serialization aborts = %d, want 1 (vector %v)", m.Aborts[core.AbortSerialization], m.Aborts)
	}
	if r := m.Aborts.AttributionRate(); r != 1 {
		t.Fatalf("attribution rate = %v, want 1", r)
	}
}

func TestTraceLockWaitEvents(t *testing.T) {
	db, rec := traceDB(t, core.SnapshotFUW, 4)

	// t1 X-locks row 0; t2 blocks behind it, then t1 commits and t2's
	// FUW check fails. The trace must pair the lock-wait with its wake.
	t1 := db.Begin()
	if err := t1.Update("T", core.Int(0), kv(0, 1)); err != nil {
		t.Fatal(err)
	}
	t2 := db.Begin()
	var wg sync.WaitGroup
	wg.Add(1)
	blocked := make(chan struct{})
	go func() {
		defer wg.Done()
		close(blocked)
		if err := t2.Update("T", core.Int(0), kv(0, 2)); err != core.ErrSerialization {
			t.Errorf("t2 update err = %v, want ErrSerialization", err)
		}
		t2.Abort()
	}()
	<-blocked
	// Wait until t2 is queued on the row lock before committing t1.
	for db.locks.QueueLen(storage.LockKey{Table: "T", Key: core.Int(0)}) == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	evs := rec.Drain()
	if err := trace.Validate(evs); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	kinds := countKinds(evs)
	if kinds[trace.EvLockWait] != 1 || kinds[trace.EvLockWake] != 1 {
		t.Fatalf("lock wait/wake = %d/%d, want 1/1", kinds[trace.EvLockWait], kinds[trace.EvLockWake])
	}
	for _, ev := range evs {
		if ev.Kind == trace.EvLockWake && ev.WaitNS <= 0 {
			t.Fatalf("lock-wake without wait time: %+v", ev)
		}
	}
	// The blocked acquire must land in the lock-wait histogram.
	if w := db.TxnMetrics().LockWait; w.Count != 1 {
		t.Fatalf("lock-wait histogram count = %d, want 1", w.Count)
	}
}

// TestCommitLatencyMetersUpdatingCommits: every updating commit lands in
// the commit-latency histogram (cmd/sisqld publishes it); read-only
// commits do not.
func TestCommitLatencyMetersUpdatingCommits(t *testing.T) {
	db, _ := traceDB(t, core.SnapshotFUW, 4)
	base := db.TxnMetrics().CommitLatency.Count // the loader's commit
	for i := 0; i < 3; i++ {
		tx := db.Begin()
		if err := tx.Update("T", core.Int(0), kv(0, int64(i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	ro := db.Begin()
	if _, err := ro.Get("T", core.Int(0)); err != nil {
		t.Fatal(err)
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
	if c := db.TxnMetrics().CommitLatency.Count - base; c != 3 {
		t.Fatalf("commit-latency count grew by %d, want 3 (updating commits only)", c)
	}
}

func TestTraceDisabledRecorderCapturesNothing(t *testing.T) {
	rec := trace.New(trace.Options{Disabled: true})
	db := Open(Config{Mode: core.SnapshotFUW, Platform: core.PlatformPostgres})
	db.SetTracer(rec)
	defer db.Close()
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Insert("T", kv(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if evs := rec.Drain(); len(evs) != 0 {
		t.Fatalf("disabled recorder captured %d events", len(evs))
	}
}
