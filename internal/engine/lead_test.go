package engine

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

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
