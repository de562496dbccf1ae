package sicost_test

import (
	"testing"

	"sicost"
)

// TestReadmeQuickStart runs the README's quick-start block statement for
// statement, so a facade name the README uses cannot stop compiling
// unnoticed. Where the README elides ("... run transactions ...") it
// runs one more WriteCheck per customer.
func TestReadmeQuickStart(t *testing.T) {
	db := sicost.Open(sicost.EngineConfig{Mode: sicost.SnapshotFUW})
	defer db.Close()

	if err := sicost.CreateSmallBank(db); err != nil {
		t.Fatal(err)
	}
	if _, err := sicost.LoadSmallBank(db, sicost.LoadConfig{Customers: 1000}); err != nil {
		t.Fatal(err)
	}

	err := sicost.RunSmallBank(db, sicost.StrategyPromoteWTUpd,
		sicost.WriteCheck, sicost.TxnParams{N1: sicost.CustomerName(1), V: 100_00})
	if err != nil && !sicost.IsRetriable(err) {
		t.Fatal(err)
	}

	rec := sicost.NewTrace(sicost.TraceOptions{ShardCap: 1 << 12})
	db.SetTracer(rec)
	for i := 0; i < 20; i++ {
		err := sicost.RunSmallBank(db, sicost.StrategyPromoteWTUpd,
			sicost.WriteCheck, sicost.TxnParams{N1: sicost.CustomerName(i), V: 100_00})
		if err != nil && !sicost.IsRetriable(err) {
			t.Fatal(err)
		}
	}
	rep := sicost.CheckTrace(rec.Drain())
	if !rep.Serializable || rep.Txns != 20 || rec.Dropped() != 0 {
		t.Fatalf("sequential WriteChecks (%d events dropped): %s", rec.Dropped(), rep.Describe())
	}
}
