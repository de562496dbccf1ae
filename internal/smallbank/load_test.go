package smallbank

import (
	"errors"
	"fmt"
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
// 72 001 rows and every cent. A sync takes 10 ms here, so a loader that
// returned on its last commit's publication would lose that batch.
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
