// Quickstart: open an SI engine, load SmallBank, run transactions, and
// see the cost/correctness trade-off of the paper in miniature.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"sicost"
)

func main() {
	// A PostgreSQL-flavoured snapshot-isolation engine. No simulated
	// hardware costs: this example is about semantics.
	db := sicost.Open(sicost.EngineConfig{
		Mode:     sicost.SnapshotFUW,
		Platform: sicost.PlatformPostgres,
	})
	defer db.Close()

	if err := sicost.CreateSmallBank(db); err != nil {
		log.Fatal(err)
	}
	if _, err := sicost.LoadSmallBank(db, sicost.LoadConfig{Customers: 100, Seed: 1}); err != nil {
		log.Fatal(err)
	}
	alice := sicost.CustomerName(1)

	// Ordinary banking under plain SI.
	if err := sicost.RunSmallBank(db, sicost.StrategySI, sicost.DepositChecking,
		sicost.TxnParams{N1: alice, V: 50_00}); err != nil {
		log.Fatal(err)
	}
	tx := db.Begin()
	total, err := runBalance(tx, alice)
	if err != nil {
		log.Fatal(err)
	}
	_ = tx.Commit()
	fmt.Printf("alice's total balance: $%d.%02d\n", total/100, total%100)

	// The paper's point: plain SI admits non-serializable executions of
	// SmallBank. Record the lifecycle trace and replay the dangerous
	// interleaving (WriteCheck concurrent with TransactSaving, observed
	// by Balance); the checker reads the committed history off the trace.
	rec := sicost.NewTrace(sicost.TraceOptions{Shards: 1, ShardCap: 1 << 10})
	db.SetTracer(rec)

	wc := db.Begin() // WriteCheck's snapshot is taken now
	if err := sicost.RunSmallBank(db, sicost.StrategySI, sicost.TransactSaving,
		sicost.TxnParams{N1: alice, V: 900_00}); err != nil {
		log.Fatal(err)
	}
	if err := sicost.RunSmallBank(db, sicost.StrategySI, sicost.Balance,
		sicost.TxnParams{N1: alice}); err != nil {
		log.Fatal(err)
	}
	if err := writeCheckOn(wc, alice, 5000_00); err != nil {
		log.Fatal(err)
	}
	if err := wc.Commit(); err != nil {
		log.Fatal(err)
	}
	rep := sicost.CheckTrace(rec.Drain())
	fmt.Printf("\nplain SI, dangerous interleaving: %s", rep.Describe())

	// Now the same interleaving with the paper's cheapest repair:
	// PromoteWT-upd (an identity update on Saving inside WriteCheck).
	// First-Updater-Wins turns the anomaly into a retriable failure.
	// (Drain emptied the recorder: the next check sees only what follows.)
	wc2 := db.Begin()
	if err := sicost.RunSmallBank(db, sicost.StrategyPromoteWTUpd, sicost.TransactSaving,
		sicost.TxnParams{N1: alice, V: 900_00}); err != nil {
		log.Fatal(err)
	}
	err = writeCheckPromotedOn(wc2, alice, 5000_00)
	switch {
	case err == nil:
		err = wc2.Commit()
	default:
		wc2.Abort()
	}
	if sicost.IsRetriable(err) {
		fmt.Println("\nPromoteWT-upd: WriteCheck got a serialization failure — retry and stay correct.")
	} else if err != nil {
		log.Fatal(err)
	} else {
		fmt.Println("\nPromoteWT-upd: interleaving was already safe this time.")
	}
	rep = sicost.CheckTrace(rec.Drain())
	fmt.Printf("with the strategy: %s", rep.Describe())
}

// runBalance executes the Balance program on an existing transaction.
func runBalance(tx *sicost.Tx, name string) (int64, error) {
	acct, err := tx.Get("Account", sicost.Str(name))
	if err != nil {
		return 0, err
	}
	cust := acct[1]
	sav, err := tx.Get("Saving", cust)
	if err != nil {
		return 0, err
	}
	chk, err := tx.Get("Checking", cust)
	if err != nil {
		return 0, err
	}
	return sav[1].Int64() + chk[1].Int64(), nil
}

// writeCheckOn runs the WriteCheck body on an already-open transaction
// (so its snapshot can predate a concurrent deposit).
func writeCheckOn(tx *sicost.Tx, name string, amount int64) error {
	return writeCheck(tx, name, amount, false)
}

// writeCheckPromotedOn is the PromoteWT-upd variant: it identity-updates
// the Saving row it read.
func writeCheckPromotedOn(tx *sicost.Tx, name string, amount int64) error {
	return writeCheck(tx, name, amount, true)
}

func writeCheck(tx *sicost.Tx, name string, amount int64, promote bool) error {
	acct, err := tx.Get("Account", sicost.Str(name))
	if err != nil {
		return err
	}
	cust := acct[1]
	sav, err := tx.Get("Saving", cust)
	if err != nil {
		return err
	}
	chk, err := tx.Get("Checking", cust)
	if err != nil {
		return err
	}
	pay := amount
	if sav[1].Int64()+chk[1].Int64() < amount {
		pay = amount + 1 // overdraft penalty
	}
	if err := tx.Update("Checking", cust,
		sicost.Record{cust, sicost.Int(chk[1].Int64() - pay)}); err != nil {
		return err
	}
	if promote {
		// UPDATE Saving SET Balance = Balance WHERE CustomerID = :x
		if err := tx.Update("Saving", cust, sav.Clone()); err != nil {
			return err
		}
	}
	return nil
}
