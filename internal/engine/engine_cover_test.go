package engine

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"sicost/internal/core"
	"sicost/internal/simres"
)

func TestAccessors(t *testing.T) {
	db := openKV(t, core.SnapshotFUW, core.PlatformCommercial)
	if db.Mode() != core.SnapshotFUW || db.Platform() != core.PlatformCommercial {
		t.Fatal("DB accessors")
	}
	if db.Machine() == nil {
		t.Fatal("Machine accessor")
	}
	tx := db.Begin()
	defer tx.Abort()
	if tx.ID() == 0 {
		t.Fatal("tx id")
	}
	if tx.Platform() != core.PlatformCommercial {
		t.Fatal("tx platform")
	}
	if tx.Cost() != DefaultCostModel(core.PlatformCommercial) {
		t.Fatal("tx cost model")
	}
	if tx.StartCSN() == 0 {
		t.Fatal("start CSN should reflect the loader's commit")
	}
	if tx.Stmts() != 0 {
		t.Fatal("fresh txn has no statements")
	}
	_ = mustGetV(t, tx, 1)
	if tx.Stmts() != 1 {
		t.Fatalf("Stmts = %d", tx.Stmts())
	}
	tx.Charge(0) // no-op path
}

func TestSetResources(t *testing.T) {
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)
	db.SetResources(simres.Config{VirtualCPUs: 1, TxnCPU: 2 * time.Millisecond})
	start := time.Now()
	tx := db.Begin() // must charge 2ms on the new machine
	tx.Abort()
	if time.Since(start) < 2*time.Millisecond {
		t.Fatal("SetResources not effective")
	}
}

func TestChargeSpendsSimulatedCPU(t *testing.T) {
	db := Open(Config{
		Mode: core.SnapshotFUW,
		Res:  simres.Config{VirtualCPUs: 1, TxnCPU: time.Microsecond},
	})
	defer db.Close()
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	start := time.Now()
	tx.Charge(3 * time.Millisecond)
	if time.Since(start) < 3*time.Millisecond {
		t.Fatal("Charge did not spin")
	}
	tx.Abort()
}

func TestScanLatestStopsEarly(t *testing.T) {
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)
	n := 0
	if err := db.ScanLatest("T", func(core.Value, core.Record) bool {
		n++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("scan visited %d rows after stop", n)
	}
	// Deleted rows are skipped.
	tx := db.Begin()
	if err := tx.Delete("T", core.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	n = 0
	if err := db.ScanLatest("T", func(core.Value, core.Record) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("scan saw %d rows, want 1 after delete", n)
	}
}

func TestInsertEdgeCases(t *testing.T) {
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)

	// Re-inserting a deleted key succeeds.
	tx := db.Begin()
	if err := tx.Delete("T", core.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin()
	if err := tx2.Insert("T", kv(1, 5)); err != nil {
		t.Fatalf("insert after delete: %v", err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}

	// Insert validation errors.
	tx3 := db.Begin()
	defer tx3.Abort()
	if err := tx3.Insert("Missing", kv(9, 9)); err == nil {
		t.Fatal("insert into missing table accepted")
	}
	if err := tx3.Insert("T", core.Record{core.Int(9)}); err == nil {
		t.Fatal("bad arity insert accepted")
	}

	// Insert racing a concurrent committed insert of the same key: the
	// second transaction cannot see the first's row but must still get
	// a uniqueness error.
	a := db.Begin()
	b := db.Begin()
	if err := a.Insert("T", kv(77, 1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	err := b.Insert("T", kv(77, 2))
	if !errors.Is(err, core.ErrUniqueViolation) && !errors.Is(err, core.ErrSerialization) {
		t.Fatalf("concurrent insert of same PK: %v", err)
	}
	b.Abort()
}

func TestDeleteEdgeCases(t *testing.T) {
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)
	tx := db.Begin()
	defer tx.Abort()
	if err := tx.Delete("Missing", core.Int(1)); err == nil {
		t.Fatal("delete from missing table accepted")
	}
	// Delete then delete again within the txn: second sees no row.
	if err := tx.Delete("T", core.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("T", core.Int(1)); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	// Update after own delete also fails.
	if err := tx.Update("T", core.Int(1), kv(1, 9)); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("update after delete: %v", err)
	}

	// FUW applies to deletes: concurrent committed update aborts the
	// deleter.
	d1 := db.Begin()
	d2 := db.Begin()
	mustSetV(t, d1, 2, 7)
	if err := d1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := d2.Delete("T", core.Int(2)); !errors.Is(err, core.ErrSerialization) {
		t.Fatalf("delete vs concurrent update: %v", err)
	}
	d2.Abort()
}

func TestReadForUpdateEdgeCases(t *testing.T) {
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)
	tx := db.Begin()
	defer tx.Abort()
	if _, err := tx.ReadForUpdate("Missing", core.Int(1)); err == nil {
		t.Fatal("sfu on missing table accepted")
	}
	if _, err := tx.ReadForUpdate("T", core.Int(404)); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("sfu on missing row: %v", err)
	}
	// sfu sees own uncommitted write.
	mustSetV(t, tx, 1, 42)
	rec, err := tx.ReadForUpdate("T", core.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if rec[1].Int64() != 42 {
		t.Fatalf("sfu read %d, want own write", rec[1].Int64())
	}
}

func TestReadForUpdateUnder2PL(t *testing.T) {
	db := openKV(t, core.Strict2PL, core.PlatformPostgres)
	tx := db.Begin()
	if _, err := tx.ReadForUpdate("T", core.Int(1)); err != nil {
		t.Fatal(err)
	}
	// A concurrent reader must block behind the X lock.
	r := db.Begin()
	got := make(chan error, 1)
	go func() {
		_, err := r.Get("T", core.Int(1))
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("reader did not block behind 2PL sfu: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	r.Abort()
}

func TestGetByIndexUnder2PL(t *testing.T) {
	db := Open(Config{Mode: core.Strict2PL})
	defer db.Close()
	schema := &core.Schema{
		Name: "Acct",
		Columns: []core.Column{
			{Name: "Name", Kind: core.KindString, NotNull: true},
			{Name: "ID", Kind: core.KindInt, NotNull: true},
		},
		PK: 0, Unique: []int{1},
	}
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	w := db.Begin()
	if err := w.Insert("Acct", core.Record{core.Str("a"), core.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	r := db.Begin()
	rec, err := r.GetByIndex("Acct", "ID", core.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if rec[0] != core.Str("a") {
		t.Fatalf("rec = %v", rec)
	}
	r.Abort()
	if _, err := r.GetByIndex("Acct", "ID", core.Int(1)); !errors.Is(err, core.ErrTxDone) {
		t.Fatalf("after abort: %v", err)
	}
}

// TestSSIStress exercises the SSI sweep path (hundreds of completions)
// and re-checks serializability-by-construction invariants under random
// concurrent load.
func TestSSIStress(t *testing.T) {
	db := openKV(t, core.SerializableSI, core.PlatformPostgres)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(seed int64) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 400; i++ {
				tx := db.Begin()
				k1 := (seed + int64(i)) % 2
				k2 := 1 - k1
				if _, err := tx.Get("T", core.Int(k1+1)); err != nil {
					tx.Abort()
					continue
				}
				if err := tx.Update("T", core.Int(k2+1), kv(k2+1, int64(i))); err != nil {
					tx.Abort()
					continue
				}
				_ = tx.Commit()
			}
		}(int64(w))
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	// The table must still be consistent (no torn versions).
	chk := db.Begin()
	_ = mustGetV(t, chk, 1)
	_ = mustGetV(t, chk, 2)
	chk.Abort()
}

// Property: under SI, a snapshot's reads are stable no matter what other
// transactions commit in between (repeatable reads over random update
// traffic).
func TestSnapshotStabilityProperty(t *testing.T) {
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)
	f := func(writes []uint8) bool {
		reader := db.Begin()
		before1 := mustGetVQuiet(reader, 1)
		before2 := mustGetVQuiet(reader, 2)
		for _, w := range writes {
			tx := db.Begin()
			k := int64(w%2) + 1
			v := mustGetVQuiet(tx, k)
			if tx.Update("T", core.Int(k), kv(k, v+1)) != nil {
				tx.Abort()
				continue
			}
			if tx.Commit() != nil {
				continue
			}
		}
		after1 := mustGetVQuiet(reader, 1)
		after2 := mustGetVQuiet(reader, 2)
		reader.Abort()
		return before1 == after1 && before2 == after2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestVersionChainsStayOrdered asserts the storage invariant after churn:
// committed CSNs decrease strictly along every chain.
func TestVersionChainsStayOrdered(t *testing.T) {
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)
	for i := 0; i < 50; i++ {
		tx := db.Begin()
		v := mustGetVQuiet(tx, 1)
		if tx.Update("T", core.Int(1), kv(1, v+1)) != nil {
			tx.Abort()
			continue
		}
		_ = tx.Commit()
	}
	// Walk the chain through the storage layer.
	tbl, err := db.store.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	row := tbl.Row(core.Int(1))
	prev := ^uint64(0)
	for v := row.Head(); v != nil; v = v.Prev.Load() {
		c := v.CSN()
		if c == 0 {
			t.Fatal("uncommitted version left behind")
		}
		if c >= prev {
			t.Fatalf("chain not strictly ordered: %d then %d", prev, c)
		}
		prev = c
	}
}
