package engine

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sicost/internal/core"
	"sicost/internal/faultinject"
	"sicost/internal/wal"
)

// Stress tests for the engine under real goroutine concurrency (the
// detsim suite covers exact interleavings; these cover volume + -race).
// Every mode must preserve the two invariants the paper's anomalies
// would violate: no lost updates on a hot row (FUW / 2PL / SSI all
// forbid them) and conservation of a total that transactions only move
// between rows.

// stressModes are the concurrency-control modes under test.
var stressModes = []struct {
	name string
	mode core.CCMode
}{
	{"SI", core.SnapshotFUW},
	{"S2PL", core.Strict2PL},
	{"SSI", core.SerializableSI},
}

// runRetry executes f as one transaction, retrying retriable failures
// (deadlock victims, FUW/SSI aborts). Returns the number of attempts.
func runRetry(t *testing.T, db *DB, f func(tx *Tx) error) int {
	t.Helper()
	for attempt := 1; ; attempt++ {
		tx := db.Begin()
		err := f(tx)
		if err == nil {
			err = tx.Commit()
		} else {
			tx.Abort()
		}
		if err == nil {
			return attempt
		}
		if !core.IsRetriable(err) {
			t.Errorf("non-retriable error: %v", err)
			return attempt
		}
	}
}

// TestStressHotRowNoLostUpdates runs goroutine fleets incrementing one
// row. Final value must equal the number of successful commits exactly:
// a lost update under FUW (SI), 2PL, or SSI is a correctness bug.
func TestStressHotRowNoLostUpdates(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	for _, m := range stressModes {
		t.Run(m.name, func(t *testing.T) {
			db := Open(Config{Mode: m.mode, Platform: core.PlatformPostgres})
			defer db.Close()
			if err := db.CreateTable(kvSchema("T")); err != nil {
				t.Fatal(err)
			}
			seed := db.Begin()
			if err := seed.Insert("T", kv(0, 0)); err != nil {
				t.Fatal(err)
			}
			if err := seed.Commit(); err != nil {
				t.Fatal(err)
			}

			const (
				workers = 8
				iters   = 150
			)
			var (
				wg      sync.WaitGroup
				retries atomic.Int64
			)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						n := runRetry(t, db, func(tx *Tx) error {
							rec, err := tx.Get("T", core.Int(0))
							if err != nil {
								return err
							}
							return tx.Update("T", core.Int(0), kv(0, rec[1].Int64()+1))
						})
						retries.Add(int64(n - 1))
					}
				}()
			}
			wg.Wait()

			check := db.Begin()
			rec, err := check.Get("T", core.Int(0))
			if err != nil {
				t.Fatal(err)
			}
			check.Abort()
			if got, want := rec[1].Int64(), int64(workers*iters); got != want {
				t.Fatalf("lost updates: counter = %d, want %d (retries %d)",
					got, want, retries.Load())
			}
			commits, _ := db.Stats()
			// workers*iters increments + the seed transaction.
			if commits != uint64(workers*iters)+1 {
				t.Fatalf("commit count %d, want %d", commits, workers*iters+1)
			}
		})
	}
}

// TestStressTransfersConserveTotal runs concurrent transfers between
// uniformly random rows; the grand total must be conserved under every
// mode. Transfers acquire their two rows in random order, so under 2PL
// the deadlock detector is exercised continuously.
func TestStressTransfersConserveTotal(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	for _, m := range stressModes {
		t.Run(m.name, func(t *testing.T) {
			db := Open(Config{Mode: m.mode, Platform: core.PlatformPostgres})
			defer db.Close()
			if err := db.CreateTable(kvSchema("T")); err != nil {
				t.Fatal(err)
			}
			const (
				rows    = 32
				initial = 100
				workers = 8
				iters   = 120
			)
			seed := db.Begin()
			for k := 0; k < rows; k++ {
				if err := seed.Insert("T", kv(int64(k), initial)); err != nil {
					t.Fatal(err)
				}
			}
			if err := seed.Commit(); err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(7 + id)))
					for i := 0; i < iters; i++ {
						from := int64(rng.Intn(rows))
						to := int64(rng.Intn(rows))
						if to == from {
							to = (to + 1) % rows
						}
						amount := int64(rng.Intn(5) + 1)
						runRetry(t, db, func(tx *Tx) error {
							src, err := tx.Get("T", core.Int(from))
							if err != nil {
								return err
							}
							dst, err := tx.Get("T", core.Int(to))
							if err != nil {
								return err
							}
							if err := tx.Update("T", core.Int(from), kv(from, src[1].Int64()-amount)); err != nil {
								return err
							}
							return tx.Update("T", core.Int(to), kv(to, dst[1].Int64()+amount))
						})
					}
				}(w)
			}
			wg.Wait()

			total := int64(0)
			if err := db.ScanLatest("T", func(_ core.Value, rec core.Record) bool {
				total += rec[1].Int64()
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if want := int64(rows * initial); total != want {
				t.Fatalf("total not conserved: %d, want %d", total, want)
			}
			cont := db.Contention()
			if m.mode == core.Strict2PL && cont.Lock.Deadlocks == 0 {
				t.Logf("note: no deadlocks observed under 2PL (scheduling-dependent)")
			}
			if cont.Lock.FastPath == 0 {
				t.Fatalf("no fast-path acquires recorded: %+v", cont.Lock)
			}
		})
	}
}

// TestStressCommitVisibility checks the commit sequencer's session
// guarantee under load: after Commit returns, a transaction begun by
// the same goroutine must see the committed value (publishCSN blocks
// until the CSN is visible, even when commits publish out of order).
func TestStressCommitVisibility(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	db := Open(Config{Mode: core.SnapshotFUW, Platform: core.PlatformPostgres})
	defer db.Close()
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	seed := db.Begin()
	for k := 0; k < workers; k++ {
		if err := seed.Insert("T", kv(int64(k), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			k := int64(id) // private row: no conflicts, pure sequencer load
			for i := int64(1); i <= 300; i++ {
				runRetry(t, db, func(tx *Tx) error {
					return tx.Update("T", core.Int(k), kv(k, i))
				})
				tx := db.Begin()
				rec, err := tx.Get("T", core.Int(k))
				tx.Abort()
				if err != nil {
					t.Errorf("worker %d: %v", id, err)
					return
				}
				if got := rec[1].Int64(); got != i {
					t.Errorf("worker %d: committed %d but next snapshot read %d", id, i, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestStressBeginCloseDrain races Close against clients that keep
// beginning, writing, committing and aborting, over a handful of
// databases. Registration and the drain meet only in the slots' open
// counts and the closing flag, and the horizon's registry is spread over
// slots that a dropped pool entry hands out again, so it checks what
// they must add up to: once a Begin has been refused, no Begin that
// starts afterwards gets a live handle; Close does not return while a
// registered handle is open, and afterwards nothing is counted open;
// and the horizon never passes the snapshot of a handle that is open.
// Two Closes race each other too; both must wait for the drain.
func TestStressBeginCloseDrain(t *testing.T) {
	const clients, rows, rounds = 6, 16, 8
	for round := range rounds {
		db := Open(Config{Mode: core.SnapshotFUW, Platform: core.PlatformPostgres})
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

		var refused, closed atomic.Bool
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*clients + c)))
				for {
					wasRefused := refused.Load()
					tx := db.Begin()
					if tx.failedErr != nil {
						if !errors.Is(tx.failedErr, core.ErrShuttingDown) {
							t.Errorf("Begin refused with %v", tx.failedErr)
						}
						refused.Store(true)
						tx.Abort()
						return
					}
					if wasRefused {
						t.Error("a Begin after a refused one got a live handle")
					}
					k := int64(rng.Intn(rows))
					if _, err := tx.Get("T", core.Int(k)); err != nil {
						t.Error(err)
					}
					if rng.Intn(4) > 0 {
						_ = tx.Update("T", core.Int(k), kv(k, rng.Int63()))
					}
					if h := db.HorizonStats().Horizon; h > tx.StartCSN() {
						t.Errorf("horizon %d passed the open snapshot %d", h, tx.StartCSN())
					}
					if closed.Load() {
						t.Error("Close returned while a registered handle was open")
					}
					if rng.Intn(3) == 0 {
						tx.Abort()
					} else {
						_ = tx.Commit()
					}
				}
			}()
		}
		time.Sleep(time.Duration(1+round) * time.Millisecond)
		var closers sync.WaitGroup
		for range 2 {
			closers.Add(1)
			go func() {
				defer closers.Done()
				db.Close()
				closed.Store(true)
			}()
		}
		closers.Wait()
		wg.Wait()
		if n := db.InFlightTxns(); n != 0 {
			t.Errorf("%d handles counted open after the drain", n)
		}
	}
}

// TestStressTxnReuse: a handle DB.Txn recycles carries nothing from one
// transaction into the next. Txn clients and Begin clients transfer
// money between the rows of a table on a durable log, and the total is
// conserved; every handle fn is passed starts with no writes, no thin
// locks and no borrowed buffers, and handles do get reused. A fn that
// panics, and a commit that panics, leave their locks released and no
// transaction open, and their handles are never handed out again. A
// handle back in the pool is ended and linked into no slot.
func TestStressTxnReuse(t *testing.T) {
	const (
		rows    = 16
		initial = 100
		clients = 3 // of each kind
		iters   = 100
	)
	dev, err := wal.NewMemSegmentLog(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	reg := faultinject.New(1)
	db := Open(Config{
		Mode: core.SnapshotFUW, Platform: core.PlatformPostgres,
		WAL: wal.Config{Device: dev}, Faults: reg, LockWaitTimeout: 5 * time.Second,
	})
	defer db.Close()
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	seed := db.Begin()
	for k := int64(0); k < rows; k++ {
		if err := seed.Insert("T", kv(k, initial)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	transfer := func(tx *Tx, from, to, amount int64) error {
		src, err := tx.Get("T", core.Int(from))
		if err != nil {
			return err
		}
		dst, err := tx.Get("T", core.Int(to))
		if err != nil {
			return err
		}
		if err := tx.Update("T", core.Int(from), kv(from, src[1].Int64()-amount)); err != nil {
			return err
		}
		return tx.Update("T", core.Int(to), kv(to, dst[1].Int64()+amount))
	}
	total := func() int64 {
		sum := int64(0)
		if err := db.ScanLatest("T", func(_ core.Value, rec core.Record) bool {
			sum += rec[1].Int64()
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return sum
	}

	var (
		wg     sync.WaitGroup
		reused atomic.Int64
	)
	for c := range 2 * clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c + 1)))
			seen := make(map[*Tx]bool)
			for range iters {
				from, to := int64(rng.Intn(rows)), int64(rng.Intn(rows-1))
				if to >= from {
					to++
				}
				amount := int64(rng.Intn(5) + 1)
				if c%2 == 1 {
					runRetry(t, db, func(tx *Tx) error { return transfer(tx, from, to, amount) })
					continue
				}
				for {
					err := db.Txn(func(tx *Tx) error {
						if tx.writes != nil || tx.thin != nil || tx.bufs != nil || tx.sfus != nil ||
							tx.failedErr != nil || tx.nStmts != 0 || tx.done {
							t.Errorf("Txn passed a handle that is not fresh: %+v", tx)
						}
						if seen[tx] {
							reused.Add(1)
						}
						seen[tx] = true
						return transfer(tx, from, to, amount)
					})
					if err == nil {
						break
					}
					if !core.IsRetriable(err) {
						t.Errorf("non-retriable error: %v", err)
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if got, want := total(), int64(rows*initial); got != want {
		t.Fatalf("total not conserved: %d, want %d", got, want)
	}
	if reused.Load() == 0 {
		t.Error("no Txn client was ever passed a handle it had been passed before")
	}

	// A panic out of fn, then one out of the commit (the stamp fault
	// fires at its head): each leaves its rows unlocked and unchanged.
	var dead []*Tx
	for _, commitPanics := range []bool{false, true} {
		if commitPanics {
			if err := reg.Arm(faultinject.Spec{Point: FaultCommitStamp, Count: 1, Action: faultinject.ActPanic}); err != nil {
				t.Fatal(err)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("commit panics %v: Txn returned instead of unwinding", commitPanics)
				}
			}()
			_ = db.Txn(func(tx *Tx) error {
				dead = append(dead, tx)
				if err := transfer(tx, 0, 1, 1000); err != nil {
					t.Fatal(err)
				}
				if !commitPanics {
					panic("fn dies")
				}
				return nil
			})
		}()
		if tx := dead[len(dead)-1]; !tx.done || db.InFlightTxns() != 0 {
			tx.Abort() // so that Close does not wait for it
			t.Fatalf("commit panics %v: the handle was left open", commitPanics)
		}
		if err := db.Txn(func(tx *Tx) error { return transfer(tx, 1, 0, 1) }); err != nil {
			t.Fatalf("commit panics %v: the rows it wrote are still locked: %v", commitPanics, err)
		}
		if got, want := total(), int64(rows*initial); got != want {
			t.Fatalf("commit panics %v: total %d, want %d", commitPanics, got, want)
		}
	}
	for range 64 {
		_ = db.Txn(func(tx *Tx) error {
			if slices.Contains(dead, tx) {
				t.Fatal("Txn handed out a handle a panic unwound past")
			}
			return nil
		})
		tx := db.Begin()
		if slices.Contains(dead, tx) {
			t.Fatal("Begin handed out a handle a panic unwound past")
		}
		tx.Abort()
	}

	// A handle back in the pool holds nothing and is linked into nothing.
	var kept *Tx
	if err := db.Txn(func(tx *Tx) error { kept = tx; return transfer(tx, 2, 3, 1) }); err != nil {
		t.Fatal(err)
	}
	if kept.writes != nil || kept.thin != nil || kept.bufs != nil || kept.sfus != nil || kept.ssi != nil ||
		kept.slot != nil || kept.snapPrev != nil || kept.snapNext != nil || kept.db != nil || !kept.done {
		t.Fatalf("a recycled handle still holds state: %+v", kept)
	}
}

// TestTxnHandleEndsWithFn: the handle DB.Txn passes fn is the engine's
// once fn returns. Used late, it reports that it has ended instead of
// acting, and it commits nothing of what it was asked after its Txn.
func TestTxnHandleEndsWithFn(t *testing.T) {
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)
	var late *Tx
	if err := db.Txn(func(tx *Tx) error {
		late = tx
		_, err := tx.Get("T", core.Int(1))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := late.Get("T", core.Int(1)); !errors.Is(err, core.ErrTxDone) {
		t.Fatalf("a late Get returned %v, want %v", err, core.ErrTxDone)
	}
	if err := late.Update("T", core.Int(1), kv(1, 7)); !errors.Is(err, core.ErrTxDone) {
		t.Fatalf("a late Update returned %v, want %v", err, core.ErrTxDone)
	}
	if err := late.Commit(); !errors.Is(err, core.ErrTxDone) {
		t.Fatalf("a late Commit returned %v, want %v", err, core.ErrTxDone)
	}
	late.Abort()
	if n := db.InFlightTxns(); n != 0 {
		t.Fatalf("%d transactions open", n)
	}
	check := db.Begin()
	defer check.Abort()
	if rec, err := check.Get("T", core.Int(1)); err != nil || rec[1].Int64() != 100 {
		t.Fatalf("row 1 reads %v, %v; want 100", rec, err)
	}
}
