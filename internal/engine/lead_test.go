package engine

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sicost/internal/core"
	"sicost/internal/wal"
)

// commitStackLog records, for every Append, whether Tx.Commit is on the
// appending goroutine's stack and how many goroutines exist.
type commitStackLog struct {
	*wal.SegmentLog
	mu         sync.Mutex
	onStack    []bool
	goroutines []int
}

func (d *commitStackLog) Append(b []byte) error {
	buf := make([]byte, 16<<10)
	buf = buf[:runtime.Stack(buf, false)]
	d.mu.Lock()
	d.onStack = append(d.onStack, bytes.Contains(buf, []byte("engine.(*Tx).Commit")))
	d.goroutines = append(d.goroutines, runtime.NumGoroutine())
	d.mu.Unlock()
	return d.SegmentLog.Append(b)
}

// TestSyncCommitFlushesOnItsOwnGoroutine: at MPL 1 a sync commit reaches
// the device from inside Tx.Commit — no flush goroutine exists while it
// appends, and none is left behind.
func TestSyncCommitFlushesOnItsOwnGoroutine(t *testing.T) {
	dev := &commitStackLog{SegmentLog: newMemLog(t)}
	db := Open(Config{Mode: core.SnapshotFUW, WAL: wal.Config{Device: dev}})
	defer db.Close()
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	dev.mu.Lock()
	ddl := len(dev.onStack) // the schema frame's append
	dev.mu.Unlock()
	before := runtime.NumGoroutine()
	const commits = 5
	for i := int64(1); i <= commits; i++ {
		tx := db.Begin()
		if err := tx.Insert("T", kv(i, i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d sync commits changed the goroutine count from %d to %d", commits, before, after)
	}
	if got := len(dev.onStack) - ddl; got != commits {
		t.Fatalf("%d appends for %d commits", got, commits)
	}
	for i := ddl; i < len(dev.onStack); i++ {
		if !dev.onStack[i] || dev.goroutines[i] != before {
			t.Errorf("append %d: Tx.Commit on its stack: %v; %d goroutines, %d before the commits",
				i-ddl+1, dev.onStack[i], dev.goroutines[i], before)
		}
	}
	if s := db.WAL().Stats(); s.LedFlushes != commits || s.Flushes != commits {
		t.Errorf("stats %+v; want %d windows, each flushed by its committer", s, commits)
	}
}

// TestPublishInOrderOnOneProcessor drives publishCSN with GOMAXPROCS(1),
// where a committer that arrives before its predecessor can only be
// overtaken if it gives the processor up. A predecessor that is a yield
// away publishes during the yield and nobody parks; one that is not
// coming yet leaves its successors parked — those are the waits
// CommitPublishWaits counts — and they publish in CSN order when it
// does.
func TestPublishInOrderOnOneProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	db := Open(Config{Mode: core.SnapshotFUW})
	defer db.Close()

	// CSN 2 arrives first; CSN 1 is this goroutine, runnable all along.
	db.nextCSN = 2
	second := make(chan struct{})
	go func() { db.publishCSN(2); close(second) }()
	runtime.Gosched() // the successor runs, finds CSN 1 unpublished and yields back
	if got := db.visibleCSN.Load(); got != 0 {
		t.Fatalf("CSN 2 published before CSN 1: visible %d", got)
	}
	db.publishCSN(1)
	<-second
	if got, waits := db.visibleCSN.Load(), db.Contention().CommitPublishWaits; got != 2 || waits != 0 {
		t.Fatalf("visible %d after %d parks; want 2 published with none: the predecessor was a yield away", got, waits)
	}

	// CSNs 4 and 5 arrive, CSN 3 stays away for as long as they care to
	// yield: both park.
	db.nextCSN = 5
	var (
		mu    sync.Mutex
		order []uint64
		wg    sync.WaitGroup
	)
	for _, csn := range []uint64{5, 4} {
		wg.Add(1)
		go func(csn uint64) {
			defer wg.Done()
			db.publishCSN(csn)
			mu.Lock()
			order = append(order, csn)
			mu.Unlock()
		}(csn)
	}
	for db.Contention().CommitPublishWaits < 2 {
		runtime.Gosched()
	}
	if got := db.visibleCSN.Load(); got != 2 {
		t.Fatalf("visible %d with CSN 3 unpublished, want 2", got)
	}
	db.publishCSN(3)
	wg.Wait()
	if got := db.visibleCSN.Load(); got != 5 || len(order) != 2 || order[0] != 4 || order[1] != 5 {
		t.Fatalf("visible %d, successors returned in order %v; want 5 and [4 5]", got, order)
	}
	if waits := db.Contention().CommitPublishWaits; waits != 2 {
		t.Fatalf("%d parks counted, want the two committers that parked", waits)
	}
}

// TestSyncCommitAllocations pins the allocation diet of a serial durable
// commit — begin, read, update, sync commit against a log in memory. The
// commit record, its verdict channel, its row images and its frame come
// from the transaction's recycled buffers and the log's queue keeps its
// array, so what is left is the handle, the record image and its
// version: three allocations, where there were nine while the record and
// its queue slot were made for every commit. The race detector's
// sync.Pool drops a quarter of what it is given, so the count holds only
// without it.
func TestSyncCommitAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops recycled buffers")
	}
	const rows = 64
	dev, err := wal.NewMemSegmentLog(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	db := Open(Config{Mode: core.SnapshotFUW, WAL: wal.Config{Device: dev}})
	defer db.Close()
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	seed := db.Begin()
	for k := int64(0); k < rows; k++ {
		if err := seed.Insert("T", kv(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	i := int64(0)
	allocs := testing.AllocsPerRun(500, func() {
		i++
		k := i % rows
		tx := db.Begin()
		if _, err := tx.Get("T", core.Int(k)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Update("T", core.Int(k), core.Record{core.Int(k), core.Int(i)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("a serial durable commit allocates %.0f objects, want at most 3", allocs)
	}
	if s := db.WAL().Stats(); s.Records < 500 {
		t.Fatalf("stats %+v: the commits did not all reach the log", s)
	}
}

// holdSync delegates to a memory log; armed, its next Sync announces
// itself on entered and waits for release.
type holdSync struct {
	*wal.SegmentLog
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (d *holdSync) Sync() error {
	if d.armed.CompareAndSwap(true, false) {
		d.entered <- struct{}{}
		<-d.release
	}
	return d.SegmentLog.Sync()
}

// reclaimBufs takes b back out of txBufPool, where the end of its
// transaction put it (unless the race detector's pool dropped it), so a
// test can hand it to one transaction without the pool handing it to
// another: it empties the pool until b, or a set never used, comes out.
func reclaimBufs(b *txBufs) {
	for {
		got := txBufPool.Get().(*txBufs)
		if got == b || cap(got.writes) == 0 && cap(got.thin) == 0 && got.rec.Rows == nil {
			return
		}
	}
}

// TestWithdrawnRecordIsReusedCleanly: a sync commit withdrawn at its
// deadline leaves its record — verdict channel, frame, row images — in
// the transaction's buffers with no verdict in the channel and none to
// come, and the next commit on those buffers waits for its own: it
// returns durable, and recovery finds it and not the withdrawn one.
func TestWithdrawnRecordIsReusedCleanly(t *testing.T) {
	dev := &holdSync{SegmentLog: newMemLog(t), entered: make(chan struct{}), release: make(chan struct{})}
	db := Open(Config{Mode: core.SnapshotFUW, WAL: wal.Config{Device: dev}})
	defer db.Close()
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	seed := db.Begin()
	for k := int64(1); k <= 2; k++ {
		if err := seed.Insert("T", kv(k, 100*k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	// tx1 leads a flush that stays in its device sync.
	tx1 := db.Begin()
	if err := tx1.Update("T", core.Int(1), kv(1, 101)); err != nil {
		t.Fatal(err)
	}
	dev.armed.Store(true)
	tx1Done := make(chan error, 1)
	go func() { tx1Done <- tx1.Commit() }()
	<-dev.entered

	// tx2 queues behind it under a deadline and withdraws its record,
	// then waits to publish its CSN as an empty slot behind tx1's.
	tx2 := db.Begin()
	if err := tx2.Insert("T", kv(3, 300)); err != nil {
		t.Fatal(err)
	}
	bufs := tx2.bufs
	tx2.SetDeadline(time.Now().Add(5 * time.Millisecond))
	waits := db.Contention().CommitPublishWaits
	tx2Done := make(chan error, 1)
	go func() { tx2Done <- tx2.Commit() }()
	waitCond(t, func() bool { return db.Contention().CommitPublishWaits > waits })
	close(dev.release)
	if err := <-tx2Done; !errors.Is(err, core.ErrTxDeadline) {
		t.Fatalf("commit queued past its deadline: %v, want ErrTxDeadline", err)
	}
	if err := <-tx1Done; err != nil {
		t.Fatalf("in-flight commit: %v", err)
	}
	if _, outstanding := db.WAL().DurableWatermark(); outstanding {
		t.Fatal("a verdict is still owed after the withdrawal and the in-flight commit")
	}

	// tx3 commits on tx2's buffers. A verdict left in the record's
	// channel would either end tx3's wait before its flush or block the
	// flush that delivers tx3's own.
	reclaimBufs(bufs)
	tx3 := db.Begin()
	tx3.bufs, tx3.writes, tx3.thin = bufs, bufs.writes[:0], bufs.thin[:0]
	if err := tx3.Update("T", core.Int(2), kv(2, 201)); err != nil {
		t.Fatal(err)
	}
	tx3Done := make(chan error, 1)
	go func() { tx3Done <- tx3.Commit() }()
	select {
	case err := <-tx3Done:
		if err != nil {
			t.Fatalf("commit on the withdrawn record's buffers: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("commit on the withdrawn record's buffers never returned")
	}
	if durable, outstanding := db.WAL().DurableWatermark(); durable < tx3.CommitCSN() || outstanding {
		t.Fatalf("commit %d returned with the log durable to %d (verdicts owed: %v): not on its own verdict",
			tx3.CommitCSN(), durable, outstanding)
	}

	rdb, _, err := Recover(dev.SegmentLog, Config{Mode: core.SnapshotFUW})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rdb.Close()
	rtx := rdb.Begin()
	defer rtx.Abort()
	for k, want := range map[int64]int64{1: 101, 2: 201} {
		if rec, err := rtx.Get("T", core.Int(k)); err != nil || rec[1].Int64() != want {
			t.Errorf("recovered row %d = %v, %v; want %d", k, rec, err, want)
		}
	}
	if _, err := rtx.Get("T", core.Int(3)); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("withdrawn commit recovered: err=%v", err)
	}
}
