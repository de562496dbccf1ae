package storage

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"sicost/internal/core"
)

// Stress tests for the sharded lock table. They are written for the
// race detector: the protected state is touched with plain (unsynchronized)
// reads and writes, so a mutual-exclusion bug shows up as a -race report
// even when the final counts happen to be right.

func slk(i int) LockKey { return LockKey{Table: "T", Key: core.Int(int64(i))} }

// TestStressHotKeyMutualExclusion hammers one key with exclusive locks
// from many goroutines. The critical section increments a plain counter
// and checks single-occupancy with a plain flag.
func TestStressHotKeyMutualExclusion(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	lt := NewLockTable()
	const (
		workers = 16
		iters   = 400
	)
	hot := slk(0)
	var (
		counter int   // plain int: -race flags any exclusion bug
		inCrit  int32 // plain flag checked inside the critical section
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tx := uint64(id + 1)
			for i := 0; i < iters; i++ {
				if err := lt.Acquire(tx, hot, Exclusive); err != nil {
					t.Errorf("tx %d: unexpected acquire error: %v", tx, err)
					return
				}
				if inCrit != 0 {
					t.Errorf("tx %d: critical section occupied", tx)
				}
				inCrit = 1
				counter++
				inCrit = 0
				lt.Release(tx, hot)
			}
		}(w)
	}
	wg.Wait()
	if counter != workers*iters {
		t.Fatalf("lost increments: counter = %d, want %d", counter, workers*iters)
	}
	if got := lt.QueueLen(hot); got != 0 {
		t.Fatalf("queue not drained: %d waiters", got)
	}
	st := lt.Stats()
	if st.FastPath+st.Waits != workers*iters {
		t.Fatalf("acquire accounting: fastPath %d + waits %d != %d",
			st.FastPath, st.Waits, workers*iters)
	}
	if st.Deadlocks != 0 {
		t.Fatalf("single-key workload reported %d deadlocks", st.Deadlocks)
	}
}

// TestStressSharedExclusive mixes readers and writers on one key.
// Writers mutate a plain value; readers read it. Correct S/X semantics
// make this race-free; a grant bug makes -race fire.
func TestStressSharedExclusive(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	lt := NewLockTable()
	const (
		readers = 8
		writers = 4
		iters   = 300
	)
	key := slk(7)
	var (
		value int64 // guarded by the S/X lock, not by Go sync
		wg    sync.WaitGroup
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tx := uint64(1000 + id)
			for i := 0; i < iters; i++ {
				if err := lt.Acquire(tx, key, Exclusive); err != nil {
					t.Errorf("writer %d: %v", tx, err)
					return
				}
				value++
				lt.Release(tx, key)
			}
		}(w)
	}
	var reads atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tx := uint64(2000 + id)
			for i := 0; i < iters; i++ {
				if err := lt.Acquire(tx, key, Shared); err != nil {
					t.Errorf("reader %d: %v", tx, err)
					return
				}
				if value < 0 {
					t.Errorf("impossible value %d", value)
				}
				reads.Add(1)
				lt.Release(tx, key)
			}
		}(r)
	}
	wg.Wait()
	if value != writers*iters {
		t.Fatalf("lost writer increments: %d, want %d", value, writers*iters)
	}
	if reads.Load() != readers*iters {
		t.Fatalf("reads = %d, want %d", reads.Load(), readers*iters)
	}
}

// TestStressOrderedUniform acquires pairs of uniformly random keys in
// ascending key order. Ordered acquisition cannot deadlock, so every
// acquire must succeed; afterwards the table must be fully drained.
func TestStressOrderedUniform(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	lt := NewLockTable()
	const (
		workers = 16
		iters   = 400
		keys    = 64
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1 + id)))
			tx := uint64(id + 1)
			for i := 0; i < iters; i++ {
				a, b := rng.Intn(keys), rng.Intn(keys)
				if a > b {
					a, b = b, a
				}
				if err := lt.Acquire(tx, slk(a), Exclusive); err != nil {
					t.Errorf("tx %d: acquire %d: %v", tx, a, err)
					return
				}
				if b != a {
					if err := lt.Acquire(tx, slk(b), Exclusive); err != nil {
						t.Errorf("tx %d: acquire %d: %v", tx, b, err)
						lt.ReleaseAll(tx)
						return
					}
				}
				lt.ReleaseAll(tx)
			}
		}(w)
	}
	wg.Wait()
	st := lt.Stats()
	if st.Deadlocks != 0 {
		t.Fatalf("ordered acquisition deadlocked %d times", st.Deadlocks)
	}
	for i := 0; i < keys; i++ {
		if n := lt.QueueLen(slk(i)); n != 0 {
			t.Fatalf("key %d: %d waiters left", i, n)
		}
	}
	for w := 0; w < workers; w++ {
		if held := lt.HeldKeys(uint64(w + 1)); len(held) != 0 {
			t.Fatalf("tx %d still holds %v", w+1, held)
		}
	}
}

// TestStressDeadlockStorm acquires key pairs in random order on a small
// key space, so waits-for cycles form constantly. Victims release and
// retry. The test asserts the system neither wedges nor leaks: every
// worker finishes its quota and the table drains.
func TestStressDeadlockStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	lt := NewLockTable()
	const (
		workers = 12
		iters   = 200
		keys    = 5 // tiny key space: maximum cycle pressure
	)
	var (
		deadlocks atomic.Uint64
		wg        sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + id)))
			tx := uint64(id + 1)
			for i := 0; i < iters; i++ {
				for {
					a := rng.Intn(keys)
					b := (a + 1 + rng.Intn(keys-1)) % keys // distinct, unordered
					if err := lt.Acquire(tx, slk(a), Exclusive); err != nil {
						deadlocks.Add(1)
						lt.ReleaseAll(tx)
						continue
					}
					if err := lt.Acquire(tx, slk(b), Exclusive); err != nil {
						deadlocks.Add(1)
						lt.ReleaseAll(tx)
						continue
					}
					lt.ReleaseAll(tx)
					break
				}
			}
		}(w)
	}
	wg.Wait()
	st := lt.Stats()
	if st.Deadlocks != deadlocks.Load() {
		t.Fatalf("deadlock accounting: stats %d, observed %d", st.Deadlocks, deadlocks.Load())
	}
	for i := 0; i < keys; i++ {
		if n := lt.QueueLen(slk(i)); n != 0 {
			t.Fatalf("key %d: %d waiters left after storm", i, n)
		}
		for w := 0; w < workers; w++ {
			tx := uint64(w + 1)
			if lt.Holds(tx, slk(i), Shared) || lt.Holds(tx, slk(i), Exclusive) {
				t.Fatalf("tx %d leaked a hold on key %d", tx, i)
			}
		}
	}
}

// TestStressStripedStorage hammers Table and UniqueIndex from many
// goroutines: concurrent EnsureRow on overlapping keys, concurrent
// Lookup during Insert/Commit/Abort churn. Invariants: one Row anchor
// per key, and committed index entries resolve correctly.
func TestStressStripedStorage(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	schema := &core.Schema{
		Name: "T",
		Columns: []core.Column{
			{Name: "K", Kind: core.KindInt, NotNull: true},
			{Name: "V", Kind: core.KindInt, NotNull: true},
		},
		PK: 0,
	}
	tbl, err := NewTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		iters   = 500
		keys    = 100
	)
	anchors := make([]atomic.Pointer[Row], keys)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(10 + id)))
			for i := 0; i < iters; i++ {
				k := int64(rng.Intn(keys))
				r := tbl.EnsureRow(core.Int(k))
				if prev := anchors[k].Swap(r); prev != nil && prev != r {
					t.Errorf("key %d: two distinct anchors", k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := tbl.RowCount(); got > keys {
		t.Fatalf("RowCount %d > distinct keys %d", got, keys)
	}

	ix := NewUniqueIndex("T", "C", 1)
	var committed atomic.Uint64
	wg = sync.WaitGroup{}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(20 + id)))
			for i := 0; i < iters; i++ {
				tx := uint64(id*iters + i + 1)
				val := core.Int(int64(id*iters + i)) // distinct values: no unique conflicts
				if err := ix.Insert(tx, val, core.Int(int64(id))); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if rng.Intn(2) == 0 {
					csn := committed.Add(1)
					ix.Commit(tx, csn, 0)
					if pk, ok := ix.Lookup(^uint64(0), 0, val); !ok || pk != core.Int(int64(id)) {
						t.Errorf("lookup after commit: got %v, %v", pk, ok)
						return
					}
				} else {
					ix.Abort(tx)
					if _, ok := ix.Lookup(^uint64(0), 0, val); ok {
						t.Errorf("aborted entry visible for %v", val)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestStressRowLookupsRaceGrowth: Row takes no lock, so lookups run while
// inserts fill the stripes and replace their tables with larger copies.
// A key inserted before the lookups started is found every time, with
// the anchor EnsureRow returned; a key a writer inserted is found by
// every lookup its writer makes afterwards; a key never inserted is
// never found; and the anchors hold what was written through them.
func TestStressRowLookupsRaceGrowth(t *testing.T) {
	const seeded, writers, perWriter, readers = 256, 2, 4000, 3
	tbl, err := NewTable(checkingSchema())
	if err != nil {
		t.Fatal(err)
	}
	anchors := make([]*Row, seeded)
	for i := range anchors {
		anchors[i] = tbl.EnsureRow(core.Int(int64(i)))
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !done.Load() {
				i := rng.Intn(seeded)
				if got := tbl.Row(core.Int(int64(i))); got != anchors[i] {
					t.Errorf("key %d: lookup found %p, inserted %p", i, got, anchors[i])
					return
				}
				if tbl.Row(core.Int(-1-int64(i))) != nil || tbl.Row(core.Str("k")) != nil {
					t.Error("a key never inserted was found")
					return
				}
			}
		}()
	}
	var inserters sync.WaitGroup
	for w := range writers {
		inserters.Add(1)
		go func() {
			defer inserters.Done()
			for i := range perWriter {
				k := core.Int(int64(seeded + w*perWriter + i))
				row := tbl.EnsureRow(k)
				row.Install(&Version{Rec: core.Record{k, core.Int(int64(i))}, Creator: 1})
				if got := tbl.Row(k); got != row || got.Head().Rec[1] != core.Int(int64(i)) {
					t.Errorf("key %v: not found, or not as written, right after its insert", k)
					return
				}
			}
		}()
	}
	inserters.Wait()
	done.Store(true)
	wg.Wait()
	if n := tbl.RowCount(); n != seeded+writers*perWriter {
		t.Fatalf("%d anchors, want %d", n, seeded+writers*perWriter)
	}
}

// TestStressInsertRowsRaceLookups runs bulk inserts, every other one
// failing on a key repeated at its end, beside EnsureRow inserts and
// lock-free lookups: the rows of a failed batch vanish without a trace
// (a table left as it was, every key placed before still found), a
// committed batch's rows are found, and no key is lost to the slots a
// failed batch emptied.
func TestStressInsertRowsRaceLookups(t *testing.T) {
	const seeded, batches, batch, readers = 256, 60, 200, 2
	tbl, err := NewTable(checkingSchema())
	if err != nil {
		t.Fatal(err)
	}
	anchors := make([]*Row, seeded)
	for i := range anchors {
		anchors[i] = tbl.EnsureRow(core.Int(int64(i)))
	}
	image := func(base int64, repeat bool) Image {
		return func(i int) (core.Value, core.Record, uint64) {
			k := base + int64(i)
			if repeat && i == batch-1 {
				k = base
			}
			return core.Int(k), core.Record{core.Int(k), core.Int(k)}, uint64(base)
		}
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !done.Load() {
				i := rng.Intn(seeded)
				if got := tbl.Row(core.Int(int64(i))); got != anchors[i] {
					t.Errorf("key %d: lookup found %p, inserted %p", i, got, anchors[i])
					return
				}
			}
		}()
	}
	var ensured []*Row
	wg.Add(1)
	go func() { // inserts one row at a time, under other keys
		defer wg.Done()
		for i := range 2000 {
			ensured = append(ensured, tbl.EnsureRow(core.Int(int64(-1-i))))
		}
	}()
	for b := range batches {
		base := int64(seeded + b*batch)
		ins, err := tbl.InsertRows(0, batch, image(base, b%2 == 1))
		if b%2 == 1 {
			if !errors.Is(err, core.ErrUniqueViolation) {
				t.Fatalf("batch %d repeats a key: %v", b, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		ins.Release()
	}
	done.Store(true)
	wg.Wait()
	for b := range batches {
		base := int64(seeded + b*batch)
		for i := range batch {
			row := tbl.Row(core.Int(base + int64(i)))
			if b%2 == 1 && row != nil {
				t.Fatalf("key %d of failed batch %d is in the table", base+int64(i), b)
			}
			if b%2 == 0 && (row == nil || row.Head().CSN() != uint64(base) || row.Head().Rec[1] != core.Int(base+int64(i))) {
				t.Fatalf("key %d of batch %d: %v", base+int64(i), b, row)
			}
		}
	}
	for i, row := range ensured {
		if tbl.Row(core.Int(int64(-1-i))) != row {
			t.Fatalf("key %d inserted by EnsureRow is lost", -1-i)
		}
	}
	if n, want := tbl.RowCount(), seeded+len(ensured)+batches/2*batch; n != want {
		t.Fatalf("%d anchors, want %d", n, want)
	}
}
