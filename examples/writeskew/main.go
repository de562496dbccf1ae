// Write skew and select-for-update semantics, side by side on several
// engines: plain SI lets the classic "doctors on call" write skew
// commit; SSI and 2PL do not; and the paper's select-for-update
// promotion behaves differently on PostgreSQL and the commercial
// platform (§II-C).
//
//	go run ./examples/writeskew
package main

import (
	"fmt"
	"log"

	"sicost"
	"sicost/internal/core"
)

// oncallSchema: oncall(doctor, on_duty) with the invariant "at least one
// doctor on duty" — enforceable by each transaction alone, broken by
// write skew.
func oncallSchema() *sicost.Schema {
	return &sicost.Schema{
		Name: "oncall",
		Columns: []sicost.Column{
			{Name: "doctor", Kind: sicost.KindString, NotNull: true},
			{Name: "on_duty", Kind: sicost.KindInt, NotNull: true},
		},
		PK: 0,
	}
}

func newDB(mode core.CCMode, platform core.Platform) *sicost.DB {
	db := sicost.Open(sicost.EngineConfig{Mode: mode, Platform: platform})
	if err := db.CreateTable(oncallSchema()); err != nil {
		log.Fatal(err)
	}
	tx := db.Begin()
	for _, d := range []string{"alice", "bob"} {
		if err := tx.Insert("oncall", sicost.Record{sicost.Str(d), sicost.Int(1)}); err != nil {
			log.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	return db
}

// goOffDuty is the transaction each doctor runs: leave duty only if the
// other doctor is still on duty. It returns the first error encountered.
func goOffDuty(tx *sicost.Tx, me, other string) error {
	mine, err := tx.Get("oncall", sicost.Str(me))
	if err != nil {
		return err
	}
	theirs, err := tx.Get("oncall", sicost.Str(other))
	if err != nil {
		return err
	}
	if mine[1].Int64()+theirs[1].Int64() < 2 {
		return fmt.Errorf("%w: someone must stay on duty", sicost.ErrRollback)
	}
	return tx.Update("oncall", sicost.Str(me), sicost.Record{sicost.Str(me), sicost.Int(0)})
}

func onDutyCount(db *sicost.DB) int64 {
	var n int64
	if err := db.ScanLatest("oncall", func(_ sicost.Value, rec sicost.Record) bool {
		n += rec[1].Int64()
		return true
	}); err != nil {
		log.Fatal(err)
	}
	return n
}

func runWriteSkew(label string, mode core.CCMode) {
	db := newDB(mode, sicost.PlatformPostgres)
	defer db.Close()
	rec := sicost.NewTrace(sicost.TraceOptions{Shards: 1, ShardCap: 1 << 10})
	db.SetTracer(rec)

	// Both doctors decide to leave at the same moment. Run the two
	// transactions concurrently; under 2PL one blocks, so drive them
	// from goroutines.
	t1 := db.Begin()
	t2 := db.Begin()
	done1, done2 := make(chan error, 1), make(chan error, 1)
	go func() {
		if err := goOffDuty(t1, "alice", "bob"); err != nil {
			t1.Abort()
			done1 <- err
			return
		}
		done1 <- t1.Commit()
	}()
	go func() {
		if err := goOffDuty(t2, "bob", "alice"); err != nil {
			t2.Abort()
			done2 <- err
			return
		}
		done2 <- t2.Commit()
	}()
	err1, err2 := <-done1, <-done2

	left := onDutyCount(db)
	rep := sicost.CheckTrace(rec.Drain())
	fmt.Printf("%-9s alice: %-12v bob: %-12v on duty: %d   execution: %s\n",
		label, short(err1), short(err2), left, rep.Classify())
	if left == 0 {
		fmt.Printf("%-9s  -> the invariant is BROKEN: this is write skew\n", "")
	}
}

func runSfu(label string, platform core.Platform) {
	db := newDB(sicost.SnapshotFUW, platform)
	defer db.Close()

	// §II-C interleaving: T select-for-updates the row and commits, then
	// a concurrent U writes it. PostgreSQL allows U; the commercial
	// platform treats the committed sfu like a write and aborts U.
	T := db.Begin()
	U := db.Begin()
	if _, err := T.ReadForUpdate("oncall", sicost.Str("alice")); err != nil {
		log.Fatal(err)
	}
	if err := T.Commit(); err != nil {
		log.Fatal(err)
	}
	err := U.Update("oncall", sicost.Str("alice"), sicost.Record{sicost.Str("alice"), sicost.Int(0)})
	if err == nil {
		err = U.Commit()
	} else {
		U.Abort()
	}
	fmt.Printf("%-11s concurrent writer after committed SELECT FOR UPDATE: %v\n", label, short(err))
}

func short(err error) string {
	if err == nil {
		return "committed"
	}
	if sicost.IsRetriable(err) {
		return "serialization failure"
	}
	return err.Error()
}

func main() {
	fmt.Println("== write skew: 'at least one doctor on duty' ==")
	runWriteSkew("plain SI", sicost.SnapshotFUW)
	runWriteSkew("SSI", sicost.SerializableSI)
	runWriteSkew("2PL", sicost.Strict2PL)

	fmt.Println("\n== select-for-update promotion semantics (§II-C) ==")
	runSfu("PostgreSQL", sicost.PlatformPostgres)
	runSfu("commercial", sicost.PlatformCommercial)
	fmt.Println("\nThis asymmetry is why the paper evaluates PromoteWT-sfu / PromoteBW-sfu")
	fmt.Println("only on the commercial platform: on PostgreSQL, sfu promotion is unsound.")
}
