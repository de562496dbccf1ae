package engine

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sicost/internal/core"
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
