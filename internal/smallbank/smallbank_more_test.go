package smallbank

import (
	"errors"
	"sync"
	"testing"

	"sicost/internal/core"
	"sicost/internal/engine"
)

func TestFixedConflictRowStrategyExecution(t *testing.T) {
	db := testDB(t, core.SnapshotFUW, core.PlatformPostgres)
	// Two WCs for DIFFERENT customers must conflict under the fixed-row
	// variant (the whole point of the ablation).
	t1 := db.Begin()
	t2 := db.Begin()
	if err := RunIn(t1, StrategyMaterializeWTFixed, WriteCheck, Params{N1: CustomerName(1), V: 10}); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	err := RunIn(t2, StrategyMaterializeWTFixed, WriteCheck, Params{N1: CustomerName(2), V: 10})
	if !errors.Is(err, core.ErrSerialization) {
		t.Fatalf("fixed-row variant must conflict across customers: %v", err)
	}
	t2.Abort()

	// The per-customer variant does NOT conflict across customers.
	t3 := db.Begin()
	t4 := db.Begin()
	if err := RunIn(t3, StrategyMaterializeWT, WriteCheck, Params{N1: CustomerName(3), V: 10}); err != nil {
		t.Fatal(err)
	}
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := RunIn(t4, StrategyMaterializeWT, WriteCheck, Params{N1: CustomerName(4), V: 10}); err != nil {
		t.Fatalf("per-customer variant must not conflict across customers: %v", err)
	}
	if err := t4.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestAmalgamateRollbacks(t *testing.T) {
	db := testDB(t, core.SnapshotFUW, core.PlatformPostgres)
	// Unknown names roll back (either position).
	err := Run(db, StrategySI, Amalgamate, Params{N1: "ghost", N2: CustomerName(1)})
	if !errors.Is(err, core.ErrRollback) {
		t.Fatalf("unknown N1: %v", err)
	}
	err = Run(db, StrategySI, Amalgamate, Params{N1: CustomerName(1), N2: "ghost"})
	if !errors.Is(err, core.ErrRollback) {
		t.Fatalf("unknown N2: %v", err)
	}
	// Nothing was changed by the failed attempts.
	sav, chk := balanceOf(t, db, 1)
	if sav != 1000 || chk != 500 {
		t.Fatalf("failed Amalgamate mutated: %d/%d", sav, chk)
	}
}

func TestAmalgamateWithConflictStrategy(t *testing.T) {
	db := testDB(t, core.SnapshotFUW, core.PlatformPostgres)
	if err := Run(db, StrategyMaterializeALL, Amalgamate,
		Params{N1: CustomerName(1), N2: CustomerName(2)}); err != nil {
		t.Fatal(err)
	}
	// Both conflict rows were touched.
	tx := db.Begin()
	defer tx.Abort()
	for _, id := range []int64{1, 2} {
		rec, err := tx.Get(TableConflict, core.Int(id))
		if err != nil {
			t.Fatal(err)
		}
		if rec[1].Int64() != 1 {
			t.Fatalf("conflict row %d = %d, want 1", id, rec[1].Int64())
		}
	}
}

func TestWriteCheckSfuVariant(t *testing.T) {
	db := testDB(t, core.SnapshotFUW, core.PlatformCommercial)
	if err := Run(db, StrategyPromoteWTSfu, WriteCheck, Params{N1: CustomerName(1), V: 100}); err != nil {
		t.Fatal(err)
	}
	if _, chk := balanceOf(t, db, 1); chk != 400 {
		t.Fatalf("checking = %d", chk)
	}
}

func TestLoadDefaultsAndConfig(t *testing.T) {
	cfg := LoadConfig{}
	cfg.defaults()
	if cfg.Customers != 18000 || cfg.BatchSize != 1000 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if cfg.MinSaving >= cfg.MaxSaving || cfg.MinChecking >= cfg.MaxChecking {
		t.Fatal("default balance ranges degenerate")
	}

	// A non-multiple batch size exercises the tail batch.
	db := engine.Open(engine.Config{})
	defer db.Close()
	if err := CreateSchema(db); err != nil {
		t.Fatal(err)
	}
	total, err := Load(db, LoadConfig{Customers: 7, BatchSize: 3, Seed: 9,
		MinSaving: 10, MaxSaving: 20, MinChecking: 1, MaxChecking: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := TotalMoney(db)
	if err != nil {
		t.Fatal(err)
	}
	if got != total {
		t.Fatalf("TotalMoney %d != loader total %d", got, total)
	}
}

func TestCreateSchemaTwiceFails(t *testing.T) {
	db := engine.Open(engine.Config{})
	defer db.Close()
	if err := CreateSchema(db); err != nil {
		t.Fatal(err)
	}
	if err := CreateSchema(db); err == nil {
		t.Fatal("duplicate schema accepted")
	}
}

// TestConcurrentMixedWorkloadConservation: Amalgamate-only traffic must
// conserve total money exactly under concurrency with retries, for every
// strategy that touches Amg.
func TestConcurrentAmalgamateConservation(t *testing.T) {
	for _, s := range []*Strategy{StrategySI, StrategyMaterializeALL} {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			db := testDB(t, core.SnapshotFUW, core.PlatformPostgres)
			before, err := TotalMoney(db)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					for i := 0; i < 30; i++ {
						n1 := (seed + i) % 10
						n2 := (n1 + 1 + i%9) % 10
						for attempt := 0; attempt < 100; attempt++ {
							err := Run(db, s, Amalgamate, Params{
								N1: CustomerName(n1), N2: CustomerName(n2),
							})
							if err == nil || !core.IsRetriable(err) {
								break
							}
						}
					}
				}(w)
			}
			wg.Wait()
			after, err := TotalMoney(db)
			if err != nil {
				t.Fatal(err)
			}
			if after != before {
				t.Fatalf("money not conserved: %d -> %d", before, after)
			}
		})
	}
}

// TestStrategiesSerializableUnderScriptedPairs drives every ordered pair
// of transaction types through a concurrent overlap on one customer and
// asserts the checker never finds a cycle under PromoteALL — a
// pairwise sweep complementing the stochastic driver test.
func TestStrategiesSerializableUnderScriptedPairs(t *testing.T) {
	types := []TxnType{Balance, DepositChecking, TransactSaving, Amalgamate, WriteCheck}
	db := testDB(t, core.SnapshotFUW, core.PlatformPostgres)
	analyze := recordHistory(t, db)
	name := CustomerName(0)
	other := CustomerName(1)

	runType := func(tx *engine.Tx, typ TxnType) error {
		return RunIn(tx, StrategyPromoteALL, typ, Params{N1: name, N2: other, V: 5})
	}
	for _, a := range types {
		for _, b := range types {
			t1 := db.Begin()
			t1.SetTag(a.Short())
			t2 := db.Begin()
			t2.SetTag(b.Short())
			// t2 runs to completion first, then t1 on its older snapshot.
			if err := runType(t2, b); err != nil {
				t2.Abort()
			} else {
				_ = t2.Commit()
			}
			if err := runType(t1, a); err != nil {
				t1.Abort()
			} else {
				_ = t1.Commit()
			}
		}
	}
	rep := analyze()
	if !rep.Serializable {
		t.Fatalf("PromoteALL pairwise sweep produced a cycle:\n%s", rep.Describe())
	}
}
