package sicost_test

import (
	"errors"
	"testing"

	"sicost"
)

// TestFacadeEndToEnd drives the public API surface: open, load, run
// transactions under a strategy, analyze the SDG, and certify the
// execution with the checker.
func TestFacadeEndToEnd(t *testing.T) {
	db := sicost.Open(sicost.EngineConfig{
		Mode:     sicost.SnapshotFUW,
		Platform: sicost.PlatformPostgres,
	})
	defer db.Close()

	if err := sicost.CreateSmallBank(db); err != nil {
		t.Fatal(err)
	}
	total, err := sicost.LoadSmallBank(db, sicost.LoadConfig{Customers: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Fatal("no money loaded")
	}

	rec := sicost.NewTrace(sicost.TraceOptions{Shards: 1, ShardCap: 1 << 10})
	db.SetTracer(rec)

	for i := 0; i < 20; i++ {
		err := sicost.RunSmallBank(db, sicost.StrategyPromoteWTUpd,
			sicost.DepositChecking, sicost.TxnParams{N1: sicost.CustomerName(i % 50), V: 100})
		if err != nil && !sicost.IsRetriable(err) {
			t.Fatal(err)
		}
	}
	rep := sicost.CheckTrace(rec.Drain())
	if !rep.Serializable || rep.Txns == 0 || rec.Dropped() != 0 {
		t.Fatalf("sequential deposits (%d events dropped): %s", rec.Dropped(), rep.Describe())
	}

	// SDG via the facade.
	g, err := sicost.NewSDG(sicost.SmallBankPrograms()...)
	if err != nil {
		t.Fatal(err)
	}
	if g.IsSafe() {
		t.Fatal("base SmallBank must be unsafe")
	}
	fixed, mods, err := sicost.Neutralize(sicost.SmallBankPrograms(), g.Edge("WC", "TS"), sicost.PromoteUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) == 0 {
		t.Fatal("no modifications emitted")
	}
	g2, err := sicost.NewSDG(fixed...)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.IsSafe() {
		t.Fatal("repair did not make the mix safe")
	}
}

func TestFacadeErrorsAndValues(t *testing.T) {
	db := sicost.Open(sicost.EngineConfig{Mode: sicost.SnapshotFUW})
	defer db.Close()
	if err := db.CreateTable(&sicost.Schema{
		Name:    "t",
		Columns: []sicost.Column{{Name: "k", Kind: sicost.KindInt, NotNull: true}},
		PK:      0,
	}); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	defer tx.Abort()
	if _, err := tx.Get("t", sicost.Int(1)); !errors.Is(err, sicost.ErrNotFound) {
		t.Fatalf("missing row: %v", err)
	}
	if sicost.Null().IsNull() != true || sicost.Str("x").Text() != "x" {
		t.Fatal("value constructors")
	}
	if !sicost.IsRetriable(sicost.ErrSerialization) || sicost.IsRetriable(sicost.ErrRollback) {
		t.Fatal("retriability classification")
	}
}

func TestFacadeStrategiesAndExperiments(t *testing.T) {
	if len(sicost.Strategies()) == 0 {
		t.Fatal("no strategies")
	}
	s, err := sicost.StrategyByName("MaterializeWT")
	if err != nil || s != sicost.StrategyMaterializeWT {
		t.Fatal("strategy lookup")
	}
	if len(sicost.AllExperiments()) < 16 {
		t.Fatal("experiments registry shrank")
	}
	if _, err := sicost.ExperimentByID("fig5"); err != nil {
		t.Fatal(err)
	}
	if sicost.PostgresDB(1).Platform != sicost.PlatformPostgres {
		t.Fatal("postgres profile")
	}
	if sicost.CommercialDB(1).Platform != sicost.PlatformCommercial {
		t.Fatal("commercial profile")
	}
}

func TestFacadeWorkload(t *testing.T) {
	db := sicost.Open(sicost.EngineConfig{Mode: sicost.SnapshotFUW})
	defer db.Close()
	if err := sicost.CreateSmallBank(db); err != nil {
		t.Fatal(err)
	}
	if _, err := sicost.LoadSmallBank(db, sicost.LoadConfig{Customers: 60, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	res, err := sicost.RunWorkload(db, sicost.WorkloadConfig{
		Strategy: sicost.StrategySI, MPL: 3, Customers: 60,
		HotspotSize: 10, HotspotProb: 0.9,
		Mix:     sicost.BalanceHeavyMix(0.6),
		Measure: 100_000_000, // 100ms
		Seed:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 {
		t.Fatal("no commits")
	}
}
