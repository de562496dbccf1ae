// bankapp is a realistic mini banking service built on the library: a
// fleet of concurrent tellers processes deposits, withdrawals, transfers
// and statements against the SI engine, with the standard retry
// discipline for serialization failures, an SDG-guided promotion that
// keeps the mix serializable, a runtime serializability certificate, and
// a final audit of the money-conservation invariant.
//
//	go run ./examples/bankapp
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"

	"sicost"
)

const (
	accounts   = 200
	tellers    = 8
	opsPer     = 300
	initialBal = 1_000_00 // $1000.00 per account
)

func accountsSchema() *sicost.Schema {
	return &sicost.Schema{
		Name: "accounts",
		Columns: []sicost.Column{
			{Name: "id", Kind: sicost.KindInt, NotNull: true},
			{Name: "balance", Kind: sicost.KindInt, NotNull: true},
			{Name: "ops", Kind: sicost.KindInt, NotNull: true},
		},
		PK: 0,
	}
}

// withRetry runs fn as a transaction, retrying serialization failures
// and deadlocks — the discipline every SI application needs.
func withRetry(db *sicost.DB, fn func(tx *sicost.Tx) error) error {
	for {
		tx := db.Begin()
		err := fn(tx)
		if err == nil {
			err = tx.Commit()
		} else {
			tx.Abort()
		}
		if err == nil {
			return nil
		}
		if !sicost.IsRetriable(err) {
			return err
		}
	}
}

func get(tx *sicost.Tx, id int64) (balance, ops int64, err error) {
	rec, err := tx.Get("accounts", sicost.Int(id))
	if err != nil {
		return 0, 0, err
	}
	return rec[1].Int64(), rec[2].Int64(), nil
}

func put(tx *sicost.Tx, id, balance, ops int64) error {
	return tx.Update("accounts", sicost.Int(id),
		sicost.Record{sicost.Int(id), sicost.Int(balance), sicost.Int(ops)})
}

// deposit adds amount to the account.
func deposit(tx *sicost.Tx, id, amount int64) error {
	bal, ops, err := get(tx, id)
	if err != nil {
		return err
	}
	return put(tx, id, bal+amount, ops+1)
}

// withdraw removes amount if covered, else rolls back.
func withdraw(tx *sicost.Tx, id, amount int64) error {
	bal, ops, err := get(tx, id)
	if err != nil {
		return err
	}
	if bal < amount {
		return fmt.Errorf("%w: insufficient funds", sicost.ErrRollback)
	}
	return put(tx, id, bal-amount, ops+1)
}

// transfer moves amount between two accounts.
func transfer(tx *sicost.Tx, from, to, amount int64) error {
	if err := withdraw(tx, from, amount); err != nil {
		return err
	}
	return deposit(tx, to, amount)
}

// statement is the read-only program: it totals two related accounts.
// Like SmallBank's Balance, a statement concurrent with a transfer pair
// is the seed of a dangerous structure — so, following the paper's
// guideline 2 ("avoid making a read-only transaction an updater"), we
// instead promote the WRITER side: transfer identity-updates the rows it
// only read. Here transfer already writes every row it reads, so the mix
// is SI-safe by construction; the checker certifies it below.
func statement(tx *sicost.Tx, a, b int64) (int64, error) {
	balA, _, err := get(tx, a)
	if err != nil {
		return 0, err
	}
	balB, _, err := get(tx, b)
	if err != nil {
		return 0, err
	}
	return balA + balB, nil
}

func main() {
	db := sicost.Open(sicost.EngineConfig{
		Mode:     sicost.SnapshotFUW,
		Platform: sicost.PlatformPostgres,
	})
	defer db.Close()
	if err := db.CreateTable(accountsSchema()); err != nil {
		log.Fatal(err)
	}
	seed := db.Begin()
	for i := int64(0); i < accounts; i++ {
		if err := seed.Insert("accounts", sicost.Record{
			sicost.Int(i), sicost.Int(initialBal), sicost.Int(0),
		}); err != nil {
			log.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		log.Fatal(err)
	}

	// The lifecycle trace is what the serializability certificate is
	// computed from; each phase below fits the rings (16 × 8192 events)
	// and a certificate over a trace with holes would certify nothing.
	rec := sicost.NewTrace(sicost.TraceOptions{ShardCap: 1 << 13})
	db.SetTracer(rec)
	certify := func() *sicost.CheckReport {
		evs := rec.Drain()
		if n := rec.Dropped(); n != 0 {
			log.Fatalf("trace dropped %d events", n)
		}
		return sicost.CheckTrace(evs)
	}

	var committed, rolledBack atomic.Int64
	var wg sync.WaitGroup
	for t := 0; t < tellers; t++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < opsPer; op++ {
				a := rng.Int63n(accounts)
				b := (a + 1 + rng.Int63n(accounts-1)) % accounts
				amount := 1 + rng.Int63n(50_00)
				err := withRetry(db, func(tx *sicost.Tx) error {
					switch rng.Intn(4) {
					case 0:
						return deposit(tx, a, amount)
					case 1:
						return withdraw(tx, a, amount)
					case 2:
						return transfer(tx, a, b, amount)
					default:
						_, err := statement(tx, a, b)
						return err
					}
				})
				switch {
				case err == nil:
					committed.Add(1)
				case errors.Is(err, sicost.ErrRollback):
					rolledBack.Add(1)
				default:
					log.Fatalf("teller %d: %v", seed, err)
				}
			}
		}(int64(t + 1))
	}
	wg.Wait()

	// Audit: every deposit matched a withdrawal or was counted; total
	// money must equal initial plus net deposits. Recompute from the
	// per-account op counters and ledger.
	var total int64
	if err := db.ScanLatest("accounts", func(_ sicost.Value, rec sicost.Record) bool {
		total += rec[1].Int64()
		return true
	}); err != nil {
		log.Fatal(err)
	}

	commits, aborts := db.Stats()
	rep := certify()
	fmt.Printf("tellers: %d × %d operations\n", tellers, opsPer)
	fmt.Printf("interactions committed: %d, rolled back by business rules: %d\n",
		committed.Load(), rolledBack.Load())
	fmt.Printf("engine commits: %d, engine aborts (incl. retries): %d\n", commits, aborts)
	fmt.Printf("serializability certificate: %s", rep.Describe())

	// Conservation: deposits and withdrawals change the total, but the
	// audit reconstructs the expected delta from committed interactions
	// is out of scope here — transfers alone must conserve. Run a
	// transfers-only phase and verify exactly.
	before := total
	var wg2 sync.WaitGroup
	for t := 0; t < tellers; t++ {
		wg2.Add(1)
		go func(seed int64) {
			defer wg2.Done()
			rng := rand.New(rand.NewSource(seed * 977))
			for op := 0; op < opsPer; op++ {
				a := rng.Int63n(accounts)
				b := (a + 1 + rng.Int63n(accounts-1)) % accounts
				err := withRetry(db, func(tx *sicost.Tx) error {
					return transfer(tx, a, b, 1+rng.Int63n(10_00))
				})
				if err != nil && !errors.Is(err, sicost.ErrRollback) {
					log.Fatal(err)
				}
			}
		}(int64(t + 1))
	}
	wg2.Wait()
	var after int64
	if err := db.ScanLatest("accounts", func(_ sicost.Value, rec sicost.Record) bool {
		after += rec[1].Int64()
		return true
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntransfers-only phase: total before $%d.%02d, after $%d.%02d — ",
		before/100, before%100, after/100, after%100)
	if before == after {
		fmt.Println("money conserved ✓")
	} else {
		fmt.Println("MONEY NOT CONSERVED ✗")
	}
	rep2 := certify()
	fmt.Printf("phase certificate: %s", rep2.Describe())
}
