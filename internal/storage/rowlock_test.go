package storage

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"sicost/internal/core"
)

// mustAcquireRow takes tx's lock on row without waiting and reports
// whether the grant was thin.
func mustAcquireRow(t *testing.T, lt *LockTable, tx uint64, key LockKey, row *Row) bool {
	t.Helper()
	thin, err := lt.AcquireRowUntil(tx, key, row, 0, time.Time{})
	if err != nil {
		t.Fatalf("tx %d: %v", tx, err)
	}
	return thin
}

func mustOutstanding(t *testing.T, lt *LockTable, held, queued int) {
	t.Helper()
	if h, q := lt.Outstanding(); h != held || q != queued {
		t.Fatalf("outstanding = %d held / %d queued, want %d / %d", h, q, held, queued)
	}
}

// waitQueued spins until key has n waiters.
func waitQueued(t *testing.T, lt *LockTable, key LockKey, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); lt.QueueLen(key) != n; {
		if time.Now().After(deadline) {
			t.Fatalf("queue on %v never reached %d", key, n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestThinLockStaysOutOfTheTable: an uncontended row lock is the owner
// word and nothing else — no entry, no held[tx] record — yet it counts
// as a hold and as a fast-path grant, re-entry included.
func TestThinLockStaysOutOfTheTable(t *testing.T) {
	lt := NewLockTable()
	key, row := slk(1), &Row{}
	if !mustAcquireRow(t, lt, 7, key, row) {
		t.Fatal("first grant not thin")
	}
	if mustAcquireRow(t, lt, 7, key, row) {
		t.Fatal("re-entry reported a second thin hold")
	}
	if row.owner.Load() != 7 {
		t.Fatalf("owner word = %d, want 7", row.owner.Load())
	}
	if lt.Holds(7, key, Exclusive) || len(lt.HeldKeys(7)) != 0 {
		t.Fatal("thin lock left a trace in the table")
	}
	mustOutstanding(t, lt, 1, 0)
	if st := lt.Stats(); st.FastPath != 2 || st.Waits != 0 {
		t.Fatalf("stats = %+v, want 2 fast-path grants", st)
	}
	lt.ReleaseTx(7, []*Row{row})
	if row.owner.Load() != 0 {
		t.Fatalf("owner word = %d after release", row.owner.Load())
	}
	mustOutstanding(t, lt, 0, 0)
}

// TestThinLockInflates walks the hand-over: a second writer marks the
// word contended and moves the owner's hold into the table, queues, and
// is granted when the owner's release — its compare-and-swap refused —
// goes through the table. The entry's end clears the word.
func TestThinLockInflates(t *testing.T) {
	lt := NewLockTable()
	key, row := slk(2), &Row{}
	mustAcquireRow(t, lt, 1, key, row)

	got := make(chan error, 1)
	go func() {
		thin, err := lt.AcquireRowUntil(2, key, row, 0, time.Time{})
		if thin {
			err = errors.New("grant after a wait reported thin")
		}
		got <- err
	}()
	waitQueued(t, lt, key, 1)
	if row.owner.Load() != rowContended {
		t.Fatalf("owner word = %#x, want contended", row.owner.Load())
	}
	if !lt.Holds(1, key, Exclusive) {
		t.Fatal("inflation did not record the thin owner as holder")
	}
	mustOutstanding(t, lt, 1, 1)
	// The owner, asked again, finds its hold in the table.
	if mustAcquireRow(t, lt, 1, key, row) {
		t.Fatal("re-entry on an inflated lock reported thin")
	}

	lt.ReleaseTx(1, []*Row{row})
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if !lt.Holds(2, key, Exclusive) {
		t.Fatal("waiter not granted")
	}
	mustOutstanding(t, lt, 1, 0)
	lt.ReleaseTx(2, nil)
	if row.owner.Load() != 0 {
		t.Fatalf("owner word = %#x after the entry was freed", row.owner.Load())
	}
	mustOutstanding(t, lt, 0, 0)
	if !mustAcquireRow(t, lt, 3, key, row) {
		t.Fatal("lock not thin again after the contention passed")
	}
	lt.ReleaseTx(3, []*Row{row})
}

// TestThinLockWaiterTimesOut: a waiter that gives up leaves the inflated
// entry with its holder; the owner's release still finds it, and the
// bound that bit names the error.
func TestThinLockWaiterTimesOut(t *testing.T) {
	for _, c := range []struct {
		name     string
		timeout  time.Duration
		deadline func() time.Time
		want     error
	}{
		{"lock-timeout", 5 * time.Millisecond, func() time.Time { return time.Time{} }, core.ErrLockTimeout},
		{"tx-deadline", 0, func() time.Time { return time.Now().Add(5 * time.Millisecond) }, core.ErrTxDeadline},
		{"deadline-passed", 0, func() time.Time { return time.Now().Add(-time.Millisecond) }, core.ErrTxDeadline},
	} {
		t.Run(c.name, func(t *testing.T) {
			lt := NewLockTable()
			key, row := slk(3), &Row{}
			mustAcquireRow(t, lt, 1, key, row)
			if _, err := lt.AcquireRowUntil(2, key, row, c.timeout, c.deadline()); !errors.Is(err, c.want) {
				t.Fatalf("waiter: %v, want %v", err, c.want)
			}
			mustOutstanding(t, lt, 1, 0)
			lt.ReleaseTx(2, nil)
			lt.ReleaseTx(1, []*Row{row})
			mustOutstanding(t, lt, 0, 0)
			if row.owner.Load() != 0 {
				t.Fatalf("owner word = %#x, want free", row.owner.Load())
			}
		})
	}
}

// TestThinLockDeadlockThroughTheRow: the cycle runs through two locks
// that were both thin until the requests that form it arrived; the
// request that closes it is the victim, as in the table.
func TestThinLockDeadlockThroughTheRow(t *testing.T) {
	lt := NewLockTable()
	ka, kb := slk(4), slk(5)
	ra, rb := &Row{}, &Row{}
	mustAcquireRow(t, lt, 1, ka, ra)
	mustAcquireRow(t, lt, 2, kb, rb)
	got := make(chan error, 1)
	go func() {
		_, err := lt.AcquireRowUntil(1, kb, rb, 0, time.Time{})
		got <- err
	}()
	waitQueued(t, lt, kb, 1)
	if _, err := lt.AcquireRowUntil(2, ka, ra, 0, time.Time{}); !errors.Is(err, core.ErrDeadlock) {
		t.Fatalf("closing request: %v, want deadlock", err)
	}
	if st := lt.Stats(); st.Deadlocks != 1 {
		t.Fatalf("deadlocks = %d, want 1", st.Deadlocks)
	}
	lt.ReleaseTx(2, []*Row{rb}) // the victim aborts
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	lt.ReleaseTx(1, []*Row{ra})
	mustOutstanding(t, lt, 0, 0)
	if ra.owner.Load() != 0 || rb.owner.Load() != 0 {
		t.Fatalf("owner words %#x / %#x, want free", ra.owner.Load(), rb.owner.Load())
	}
}

// TestStressThinInflationRacesRelease sets inflation against release on
// a few hot rows: every transaction takes two of them in random order
// (so waits and deadlocks both happen), touches plain memory the lock
// guards, and ends. A waiter stranded by a release that missed its
// inflater would hang the test; a hold or an owner word left behind
// fails the audit at the end.
func TestStressThinInflationRacesRelease(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const (
		workers = 8
		iters   = 2000
		hot     = 3
	)
	lt := NewLockTable()
	var (
		rows    [hot]Row
		guarded [hot]int // plain ints: -race flags an exclusion bug
		nextTx  uint64
		txMu    sync.Mutex
		wg      sync.WaitGroup
	)
	newTx := func() uint64 {
		txMu.Lock()
		defer txMu.Unlock()
		nextTx++
		return nextTx
	}
	var commits, victims [workers]int
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tx := newTx()
				a := (w + i) % hot
				b := (a + 1 + i%(hot-1)) % hot
				var thin []*Row
				ok := true
				for _, k := range []int{a, b} {
					isThin, err := lt.AcquireRowUntil(tx, slk(k), &rows[k], 0, time.Time{})
					if err != nil {
						if !errors.Is(err, core.ErrDeadlock) {
							t.Errorf("tx %d: %v", tx, err)
						}
						ok = false
						break
					}
					if isThin {
						thin = append(thin, &rows[k])
					}
					guarded[k]++
					// Hold the lock across a reschedule, or on a busy host
					// each worker runs its slice alone and nobody contends.
					runtime.Gosched()
				}
				if ok {
					commits[w]++
				} else {
					victims[w]++
				}
				lt.ReleaseTx(tx, thin)
			}
		}(w)
	}
	wg.Wait()
	mustOutstanding(t, lt, 0, 0)
	for k := range rows {
		if w := rows[k].owner.Load(); w != 0 {
			t.Errorf("row %d: owner word %#x left behind", k, w)
		}
	}
	st := lt.Stats()
	nCommits, nVictims := 0, 0
	for w := range commits {
		nCommits += commits[w]
		nVictims += victims[w]
	}
	if nCommits+nVictims != workers*iters || uint64(nVictims) != st.Deadlocks {
		t.Fatalf("%d commits + %d victims of %d transactions; table counted %d deadlocks",
			nCommits, nVictims, workers*iters, st.Deadlocks)
	}
	if st.FastPath == 0 || st.Waits == 0 {
		t.Fatalf("stress exercised one path only: %+v", st)
	}
	t.Logf("%d fast-path grants, %d waits, %d deadlock victims", st.FastPath, st.Waits, st.Deadlocks)
}
