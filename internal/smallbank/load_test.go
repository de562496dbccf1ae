package smallbank

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"sicost/internal/admission"
	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/faultinject"
	"sicost/internal/simres"
	"sicost/internal/wal"
)

const paperCustomers = 18000

// TestLoadGolden pins what Load puts into the paper-sized database for
// seed 42: the total and three customers' balances, recorded before the
// loader's commits went asynchronous. The rng sequence must not move —
// benchspine derives the ledger it audits the daemon against from an
// in-process Load with the daemon's seed.
func TestLoadGolden(t *testing.T) {
	db := engine.Open(engine.Config{Mode: core.SnapshotFUW})
	defer db.Close()
	if err := CreateSchema(db); err != nil {
		t.Fatal(err)
	}
	total, err := Load(db, LoadConfig{Customers: paperCustomers, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if total != 765386864 {
		t.Fatalf("total loaded = %d, want 765386864", total)
	}
	if got, err := TotalMoney(db); err != nil || got != total {
		t.Fatalf("TotalMoney = %d, %v; Load returned %d", got, err, total)
	}
	tx := db.Begin()
	defer tx.Abort()
	for _, want := range []struct{ id, saving, checking int64 }{
		{0, 21232, 12626},
		{9000, 32101, 13819},
		{17999, 28808, 15171},
	} {
		for table, balance := range map[string]int64{TableSaving: want.saving, TableChecking: want.checking} {
			rec, err := tx.Get(table, core.Int(want.id))
			if err != nil {
				t.Fatal(err)
			}
			if got := rec[1].Int64(); got != balance {
				t.Errorf("%s[%d] = %d, want %d", table, want.id, got, balance)
			}
		}
		acct, err := tx.Get(TableAccount, core.Str(CustomerName(int(want.id))))
		if err != nil || acct[1].Int64() != want.id {
			t.Errorf("Account[%s] = %v, %v", CustomerName(int(want.id)), acct, err)
		}
	}
	// 1 fixed-row commit + 18 batches of 1000 customers.
	if csn := db.CommitSeq(); csn != 19 {
		t.Errorf("load took %d commits, want 19", csn)
	}
}

// TestCustomerNameFormat holds the hand-written formatter to the format
// string it replaced.
func TestCustomerNameFormat(t *testing.T) {
	for _, i := range []int{0, 1, 9, 10, 99, 17999, 999999, 1000000, 9999999, 10000000, 123456789, -1, -1234567} {
		if got, want := CustomerName(i), fmt.Sprintf("cust%07d", i); got != want {
			t.Errorf("CustomerName(%d) = %q, want %q", i, got, want)
		}
	}
}

// TestLoadIsDurableOnReturn cuts the power the moment Load returns: the
// loader waits for the log once, at the end, and what it waited for must
// be everything. Recovery from what the device had synced finds all
// 72 001 rows and every cent: the load's commits are not held to the
// 10 ms simulated sync, but they are written and synced on the device
// before the wait returns.
func TestLoadIsDurableOnReturn(t *testing.T) {
	dev, err := wal.NewMemSegmentLog(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open(engine.Config{Mode: core.SnapshotFUW,
		WAL: wal.Config{Device: dev, FsyncLatency: 10 * time.Millisecond}})
	defer db.Close()
	if err := CreateSchema(db); err != nil {
		t.Fatal(err)
	}
	total, err := Load(db, LoadConfig{Customers: paperCustomers, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.DropUnsynced(); err != nil {
		t.Fatal(err)
	}
	image, err := dev.Segments()
	if err != nil {
		t.Fatal(err)
	}

	survivor, err := wal.NewMemSegmentLog(2<<20, image...)
	if err != nil {
		t.Fatal(err)
	}
	db2, rep, err := engine.Recover(survivor, engine.Config{Mode: core.SnapshotFUW})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rows := 0
	for _, table := range []string{TableAccount, TableSaving, TableChecking, TableConflict} {
		if err := db2.ScanLatest(table, func(core.Value, core.Record) bool { rows++; return true }); err != nil {
			t.Fatal(err)
		}
	}
	if want := 4*paperCustomers + 1; rows != want {
		t.Fatalf("recovered %d rows, want %d (recovery report: %+v)", rows, want, rep)
	}
	if got, err := TotalMoney(db2); err != nil || got != total {
		t.Fatalf("recovered total = %d, %v; loaded %d", got, err, total)
	}
	if db2.CommitSeq() != db.CommitSeq() {
		t.Fatalf("recovered up to CSN %d, loaded up to %d", db2.CommitSeq(), db.CommitSeq())
	}
}

// TestLoadReportsDeadLog: the batches commit without waiting for the
// log, so a device that dies under them is found out at the latest when
// Load waits at the end — it must come back with the log's sticky error,
// not with success. The small load is all enqueued long before its first
// 50 ms sync fails, so the wait at the end is the only place left to
// notice; the paper-sized one runs into the dead log while committing.
func TestLoadReportsDeadLog(t *testing.T) {
	boom := errors.New("disk died")
	for _, customers := range []int{200, paperCustomers} {
		t.Run(fmt.Sprintf("%d-customers", customers), func(t *testing.T) {
			dev, err := wal.NewMemSegmentLog(2 << 20)
			if err != nil {
				t.Fatal(err)
			}
			reg := faultinject.New(1)
			db := engine.Open(engine.Config{Mode: core.SnapshotFUW, Faults: reg,
				WAL: wal.Config{Device: dev, FsyncLatency: 50 * time.Millisecond}})
			defer db.Close()
			if err := CreateSchema(db); err != nil {
				t.Fatal(err)
			}
			if err := reg.Arm(faultinject.Spec{Point: wal.FaultFlush, Err: boom}); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(db, LoadConfig{Customers: customers, Seed: 42}); !errors.Is(err, boom) {
				t.Fatalf("Load on a dying log returned %v, want %v", err, boom)
			}
			if db.WAL().Broken() == nil {
				t.Fatal("the log is not bricked")
			}
			if held, queued := db.LockAudit(); held != 0 || queued != 0 {
				t.Fatalf("failed load left %d locks held, %d waiters", held, queued)
			}
		})
	}
}

// TestOpenLoadsOnFreeHardware: Open loads what Load loads, and the
// measured machine it installs afterwards has charged nothing for it.
// At 1 ms of simulated CPU per statement, a load on that machine would
// take over a minute.
func TestOpenLoadsOnFreeHardware(t *testing.T) {
	res := simres.Config{VirtualCPUs: 1, StmtCPU: time.Millisecond}
	db, total, err := Open(engine.Config{Mode: core.SnapshotFUW, Res: res},
		LoadConfig{Customers: paperCustomers, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if total != 765386864 {
		t.Fatalf("total loaded = %d, want 765386864 (TestLoadGolden)", total)
	}
	if busy := db.Machine().CPUBusy(); busy != 0 {
		t.Fatalf("the measured machine was charged %v for the load", busy)
	}
	if got := db.Machine().Config(); got != res {
		t.Fatalf("installed machine %+v, want %+v", got, res)
	}
}

// TestOpenLoadsOffTheLogClock: the load's commits are not held to the
// simulated log sync, and the measured machine's commits are. With a
// 200 ms sync, Open returns well inside one, and a DepositChecking after
// it still waits for a whole one. With a device under the same clock,
// every loaded row is synced by the time Load returns: recovery from
// what the device had synced finds them all.
func TestOpenLoadsOffTheLogClock(t *testing.T) {
	const sync = 200 * time.Millisecond
	const customers = 100
	t.Run("no device", func(t *testing.T) {
		start := time.Now()
		db, _, err := Open(engine.Config{Mode: core.SnapshotFUW, Platform: core.PlatformPostgres,
			WAL: wal.Config{FsyncLatency: sync}}, LoadConfig{Customers: customers, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if took := time.Since(start); took >= sync/2 {
			t.Fatalf("Open took %v under a %v simulated sync", took, sync)
		}
		start = time.Now()
		if err := Run(db, StrategySI, DepositChecking, Params{N1: CustomerName(2), V: 250}); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took < sync {
			t.Fatalf("a sync DepositChecking took %v, want at least the %v sync", took, sync)
		}
	})
	t.Run("segment log", func(t *testing.T) {
		dev, err := wal.NewMemSegmentLog(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		cfg := engine.Config{Mode: core.SnapshotFUW, Platform: core.PlatformPostgres,
			WAL: wal.Config{Device: dev, FsyncLatency: sync}}
		start := time.Now()
		db, total, err := Open(cfg, LoadConfig{Customers: customers, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if took := time.Since(start); took >= sync/2 {
			t.Fatalf("Open took %v under a %v simulated sync", took, sync)
		}
		if _, err := dev.DropUnsynced(); err != nil {
			t.Fatal(err)
		}
		image, err := dev.Segments()
		if err != nil {
			t.Fatal(err)
		}
		survivor, err := wal.NewMemSegmentLog(1<<20, image...)
		if err != nil {
			t.Fatal(err)
		}
		db2, _, err := engine.Recover(survivor, engine.Config{Mode: core.SnapshotFUW})
		if err != nil {
			t.Fatal(err)
		}
		defer db2.Close()
		rows := 0
		for _, table := range []string{TableAccount, TableSaving, TableChecking, TableConflict} {
			if err := db2.ScanLatest(table, func(core.Value, core.Record) bool { rows++; return true }); err != nil {
				t.Fatal(err)
			}
		}
		if want := 4*customers + 1; rows != want {
			t.Fatalf("recovered %d rows, want %d", rows, want)
		}
		if got, err := TotalMoney(db2); err != nil || got != total {
			t.Fatalf("recovered total = %d, %v; loaded %d", got, err, total)
		}
	})
}

// syncFails is a log device whose syncs fail: the first schema frame,
// which is synced at once, cannot be written.
type syncFails struct {
	wal.LogDevice
	err error
}

func (d syncFails) Sync() error { return d.err }

// TestOpenClosesOnError: when declaring the schema or loading fails,
// Open closes the database it opened — its admission controller and
// checkpoint scheduler stop with it — and returns the error.
func TestOpenClosesOnError(t *testing.T) {
	boom := errors.New("disk died")
	for _, c := range []struct {
		name  string
		dev   func(wal.LogDevice) wal.LogDevice
		fault string
	}{
		{"schema", func(d wal.LogDevice) wal.LogDevice { return syncFails{d, boom} }, ""},
		{"load", func(d wal.LogDevice) wal.LogDevice { return d }, wal.FaultFlush},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			mem, err := wal.NewMemSegmentLog(2 << 20)
			if err != nil {
				t.Fatal(err)
			}
			reg := faultinject.New(1)
			if c.fault != "" {
				if err := reg.Arm(faultinject.Spec{Point: c.fault, Err: boom}); err != nil {
					t.Fatal(err)
				}
			}
			db, total, err := Open(engine.Config{
				Mode: core.SnapshotFUW, Faults: reg, WAL: wal.Config{Device: c.dev(mem)},
				Admission: &admission.Config{}, CheckpointLogBytes: 1 << 20,
			}, LoadConfig{Customers: 200, Seed: 42})
			if !errors.Is(err, boom) || db != nil || total != 0 {
				t.Fatalf("Open = %v, %d, %v; want nil, 0, %v", db, total, err, boom)
			}
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the failed Open, %d before", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// loadRowByRow is the reference Load is held to: the same database, put
// in by Tx.Insert one row at a time, batch by batch, in the same
// transactions (the fixed Conflict row, then one per batch of
// customers), drawing the balances in the same order.
func loadRowByRow(db *engine.DB, cfg LoadConfig) (total int64, err error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	commit := func(insert func(tx *engine.Tx) error) (uint64, error) {
		tx := db.Begin()
		tx.SetAsync(true)
		if err := insert(tx); err != nil {
			tx.Abort()
			return 0, err
		}
		if err := tx.Commit(); err != nil {
			return 0, err
		}
		return tx.CommitCSN(), nil
	}
	last, err := commit(func(tx *engine.Tx) error {
		return tx.Insert(TableConflict, core.Record{core.Int(FixedConflictID), core.Int(0)})
	})
	if err != nil {
		return 0, err
	}
	for start := 0; start < cfg.Customers; start += cfg.BatchSize {
		end := min(start+cfg.BatchSize, cfg.Customers)
		last, err = commit(func(tx *engine.Tx) error {
			for i := start; i < end; i++ {
				sav := cfg.MinSaving + rng.Int63n(cfg.MaxSaving-cfg.MinSaving+1)
				chk := cfg.MinChecking + rng.Int63n(cfg.MaxChecking-cfg.MinChecking+1)
				total += sav + chk
				id := core.Int(int64(i))
				for _, r := range []struct {
					table string
					rec   core.Record
				}{
					{TableAccount, core.Record{core.Str(CustomerName(i)), id}},
					{TableSaving, core.Record{id, core.Int(sav)}},
					{TableChecking, core.Record{id, core.Int(chk)}},
					{TableConflict, core.Record{id, core.Int(0)}},
				} {
					if err := tx.Insert(r.table, r.rec); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, db.WaitDurable(last)
}

// loadedState is every row of the four tables as of one CSN, by table
// and key.
type loadedState map[string]map[core.Value]core.Record

func stateAsOf(t *testing.T, db *engine.DB, cut uint64) loadedState {
	t.Helper()
	st := loadedState{}
	for _, table := range []string{TableAccount, TableSaving, TableChecking, TableConflict} {
		rows := map[core.Value]core.Record{}
		if err := db.ScanAsOf(table, cut, func(k core.Value, rec core.Record) bool {
			rows[k] = rec.Clone()
			return true
		}); err != nil {
			t.Fatal(err)
		}
		st[table] = rows
	}
	return st
}

// diff names the first difference between two states, or returns "".
func (st loadedState) diff(other loadedState) string {
	for table, rows := range st {
		if len(rows) != len(other[table]) {
			return fmt.Sprintf("%s: %d rows against %d", table, len(rows), len(other[table]))
		}
		for k, rec := range rows {
			if got, ok := other[table][k]; !ok || !got.Equal(rec) {
				return fmt.Sprintf("%s/%v: %v against %v", table, k, rec, got)
			}
		}
	}
	return ""
}

// TestLoadMatchesRowByRow holds the bulk loader to the row-by-row one: a
// database loaded each way has the same rows committed at the same CSNs
// (the state as of every CSN of the load matches), the same CustomerID
// index at a snapshot before the load and after it, the same money, and
// rebuilds the same state from what its log had synced when Load
// returned.
func TestLoadMatchesRowByRow(t *testing.T) {
	cfg := LoadConfig{Customers: 2500, Seed: 7}
	type loaded struct {
		db    *engine.DB
		dev   *wal.SegmentLog
		total int64
		// early is a transaction begun before the load: its snapshot
		// sees none of it, and it keeps every CSN of the load readable
		// (ScanAsOf) by holding the snapshot horizon at 0.
		early *engine.Tx
	}
	load := func(name string, loader func(*engine.DB, LoadConfig) (int64, error)) loaded {
		dev, err := wal.NewMemSegmentLog(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		db := engine.Open(engine.Config{Mode: core.SnapshotFUW, WAL: wal.Config{Device: dev}})
		t.Cleanup(db.Close)
		if err := CreateSchema(db); err != nil {
			t.Fatal(err)
		}
		early := db.Begin()
		t.Cleanup(early.Abort)
		total, err := loader(db, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return loaded{db, dev, total, early}
	}
	bulk, ref := load("Load", Load), load("row by row", loadRowByRow)

	if bulk.total != ref.total {
		t.Fatalf("Load put in %d, row by row %d", bulk.total, ref.total)
	}
	for _, l := range []loaded{bulk, ref} {
		if got, err := TotalMoney(l.db); err != nil || got != l.total {
			t.Fatalf("TotalMoney = %d, %v; loaded %d", got, err, l.total)
		}
	}
	// 1 fixed-row commit + 3 batches of 1000 customers, the last short.
	if bulk.db.CommitSeq() != 4 || ref.db.CommitSeq() != 4 {
		t.Fatalf("loads took %d and %d commits, want 4", bulk.db.CommitSeq(), ref.db.CommitSeq())
	}
	for cut := uint64(0); cut <= 4; cut++ {
		if d := stateAsOf(t, bulk.db, cut).diff(stateAsOf(t, ref.db, cut)); d != "" {
			t.Fatalf("as of CSN %d: Load against row by row: %s", cut, d)
		}
	}

	after := []*engine.Tx{bulk.db.Begin(), ref.db.Begin()}
	defer after[0].Abort()
	defer after[1].Abort()
	for id := int64(0); id < int64(cfg.Customers); id++ {
		want := core.Record{core.Str(CustomerName(int(id))), core.Int(id)}
		for i, l := range []loaded{bulk, ref} {
			if rec, err := l.early.GetByIndex(TableAccount, "CustomerID", core.Int(id)); !errors.Is(err, core.ErrNotFound) {
				t.Fatalf("load %d: CustomerID %d found %v, %v at a snapshot before the load", i, id, rec, err)
			}
			if rec, err := after[i].GetByIndex(TableAccount, "CustomerID", core.Int(id)); err != nil || !rec.Equal(want) {
				t.Fatalf("load %d: CustomerID %d = %v, %v; want %v", i, id, rec, err, want)
			}
		}
	}

	recovered := make([]loadedState, 2)
	for i, l := range []loaded{bulk, ref} {
		if _, err := l.dev.DropUnsynced(); err != nil {
			t.Fatal(err)
		}
		image, err := l.dev.Segments()
		if err != nil {
			t.Fatal(err)
		}
		survivor, err := wal.NewMemSegmentLog(1<<20, image...)
		if err != nil {
			t.Fatal(err)
		}
		db, _, err := engine.Recover(survivor, engine.Config{Mode: core.SnapshotFUW})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if db.CommitSeq() != 4 {
			t.Fatalf("load %d recovered up to CSN %d, want 4", i, db.CommitSeq())
		}
		recovered[i] = stateAsOf(t, db, 4)
		if d := recovered[i].diff(stateAsOf(t, l.db, 4)); d != "" {
			t.Fatalf("load %d: recovered against live: %s", i, d)
		}
		tx := db.Begin()
		rec, err := tx.GetByIndex(TableAccount, "CustomerID", core.Int(1234))
		tx.Abort()
		if err != nil || rec[0] != core.Str(CustomerName(1234)) {
			t.Fatalf("load %d: recovered CustomerID index: %v, %v", i, rec, err)
		}
	}
	if d := recovered[0].diff(recovered[1]); d != "" {
		t.Fatalf("recovered Load against recovered row by row: %s", d)
	}
}
