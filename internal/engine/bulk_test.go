package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"sicost/internal/checker"
	"sicost/internal/core"
	"sicost/internal/faultinject"
	"sicost/internal/onlinecheck"
	"sicost/internal/storage"
	"sicost/internal/trace"
	"sicost/internal/wal"
)

// acctSchema is a table with a unique column besides its key, like
// SmallBank's Account.
func acctSchema() *core.Schema {
	return &core.Schema{
		Name: "A",
		Columns: []core.Column{
			{Name: "Name", Kind: core.KindString, NotNull: true},
			{Name: "ID", Kind: core.KindInt, NotNull: true},
		},
		PK:     0,
		Unique: []int{1},
	}
}

// bulkRows returns rows of table T under keys from..to-1, with values
// 10 times the key.
func bulkRows(from, to int64) []wal.RowImage {
	rows := make([]wal.RowImage, 0, to-from)
	for k := from; k < to; k++ {
		rows = append(rows, wal.RowImage{Table: "T", Key: core.Int(k), Rec: kv(k, 10*k)})
	}
	return rows
}

func acctRow(name string, id int64) wal.RowImage {
	return wal.RowImage{Table: "A", Key: core.Str(name), Rec: core.Record{core.Str(name), core.Int(id)}}
}

// TestStressBulkInsertAllOrNothing: a bulk insert that cannot insert every row
// inserts none — a key repeated in the batch, a key or a unique value a
// committed row holds, a record its schema refuses, a fault at any of
// the points it passes — and takes no CSN: the next commit gets the one
// after the last published. Every anchor it placed is gone again, so the
// same rows without the offending one go in afterwards.
func TestStressBulkInsertAllOrNothing(t *testing.T) {
	cases := []struct {
		name  string
		bad   []wal.RowImage // added to a good batch
		point string         // a fault armed instead
		want  error
	}{
		{name: "duplicate in batch", bad: bulkRows(150, 151), want: core.ErrUniqueViolation},
		{name: "existing key", bad: bulkRows(1, 2), want: core.ErrUniqueViolation},
		{name: "existing unique value", bad: []wal.RowImage{acctRow("zed", 7)}, want: core.ErrUniqueViolation},
		{name: "repeated unique value", bad: []wal.RowImage{acctRow("p", 50), acctRow("q", 50)}, want: core.ErrUniqueViolation},
		{name: "schema", bad: []wal.RowImage{{Table: "T", Key: core.Int(9), Rec: core.Record{core.Int(9), core.Str("x")}}}},
		{name: "key not the record's", bad: []wal.RowImage{{Table: "T", Key: core.Int(9), Rec: kv(8, 0)}}},
		{name: "no table", bad: []wal.RowImage{{Table: "Nope", Key: core.Int(9), Rec: kv(9, 0)}}},
		{name: "row write fault", point: storage.FaultRowWrite, want: core.ErrInjected},
		{name: "commit stamp fault", point: FaultCommitStamp, want: core.ErrInjected},
		{name: "wal commit fault", point: wal.FaultCommit, want: core.ErrInjected},
	}
	for _, m := range stressModes {
		for _, c := range cases {
			t.Run(m.name+"/"+c.name, func(t *testing.T) {
				reg := faultinject.New(1)
				db := Open(Config{Mode: m.mode, Faults: reg})
				defer db.Close()
				for _, s := range []*core.Schema{kvSchema("T"), acctSchema()} {
					if err := db.CreateTable(s); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := db.BulkInsert(append(bulkRows(1, 3), acctRow("zed", 7))); err != nil {
					t.Fatal(err)
				}
				good := append(bulkRows(100, 200), acctRow("a", 1), acctRow("b", 2))
				if c.point != "" {
					if err := reg.Arm(faultinject.Spec{Point: c.point, Count: 1, Action: faultinject.ActError}); err != nil {
						t.Fatal(err)
					}
				}
				seq, commits := db.CommitSeq(), db.TxnMetrics().Commits
				_, err := db.BulkInsert(append(good, c.bad...))
				if err == nil || c.want != nil && !errors.Is(err, c.want) {
					t.Fatalf("BulkInsert = %v, want %v", err, c.want)
				}
				if c.point != "" && reg.Fired(c.point) != 1 {
					t.Fatalf("%s fired %d times", c.point, reg.Fired(c.point))
				}
				if db.CommitSeq() != seq || db.TxnMetrics().Commits != commits {
					t.Fatalf("a failed bulk insert moved CommitSeq %d → %d, commits %d → %d",
						seq, db.CommitSeq(), commits, db.TxnMetrics().Commits)
				}
				for table, want := range map[string]int{"T": 2, "A": 1} {
					if n := db.store.MustTable(table).RowCount(); n != want {
						t.Fatalf("%s holds %d anchors after the failed bulk insert, want %d", table, n, want)
					}
				}
				tx := db.Begin()
				if _, err := tx.GetByIndex("A", "ID", core.Int(1)); !errors.Is(err, core.ErrNotFound) {
					t.Fatalf("index entry of the failed bulk insert: %v", err)
				}
				tx.Abort()
				if held, queued := db.LockAudit(); held != 0 || queued != 0 || db.InFlightTxns() != 0 {
					t.Fatalf("left %d locks, %d waiters, %d open transactions", held, queued, db.InFlightTxns())
				}

				csn, err := db.BulkInsert(good)
				if err != nil {
					t.Fatalf("the good rows alone: %v", err)
				}
				if csn != seq+1 {
					t.Fatalf("the good rows committed at CSN %d, want %d", csn, seq+1)
				}
				tx = db.Begin()
				defer tx.Abort()
				if rec, err := tx.Get("T", core.Int(150)); err != nil || !rec.Equal(kv(150, 1500)) {
					t.Fatalf("T[150] = %v, %v", rec, err)
				}
				if rec, err := tx.GetByIndex("A", "ID", core.Int(2)); err != nil || rec[0] != core.Str("b") {
					t.Fatalf("A by ID 2 = %v, %v", rec, err)
				}
			})
		}
	}
}

// TestStressBulkInsertRacesInsert: a bulk insert and an INSERT of one of
// its keys, started together, end with exactly one of them committed —
// whichever reached the key first — and the row is the winner's.
func TestStressBulkInsertRacesInsert(t *testing.T) {
	rounds := 300
	if testing.Short() || raceDetector {
		rounds = 60
	}
	for _, m := range stressModes {
		t.Run(m.name, func(t *testing.T) {
			db := Open(Config{Mode: m.mode})
			defer db.Close()
			if err := db.CreateTable(kvSchema("T")); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			wins := [2]int{}
			for r := 0; r < rounds; r++ {
				base := int64(r * 64)
				key := base + rng.Int63n(64)
				// Either side yields a few times first, so each wins some.
				bulkYields, insYields := rng.Intn(4), rng.Intn(24)
				var bulkErr, insErr error
				var wg sync.WaitGroup
				wg.Add(2)
				go func() {
					defer wg.Done()
					for range bulkYields {
						runtime.Gosched()
					}
					_, bulkErr = db.BulkInsert(bulkRows(base, base+64))
				}()
				go func() {
					defer wg.Done()
					for range insYields {
						runtime.Gosched()
					}
					tx := db.Begin()
					if insErr = tx.Insert("T", kv(key, -1)); insErr != nil {
						tx.Abort()
						return
					}
					insErr = tx.Commit()
				}()
				wg.Wait()
				if (bulkErr == nil) == (insErr == nil) {
					t.Fatalf("round %d, key %d: bulk insert %v, INSERT %v; want exactly one to commit", r, key, bulkErr, insErr)
				}
				want := kv(key, -1)
				if bulkErr == nil {
					wins[0]++
					want = kv(key, 10*key)
					if !errors.Is(insErr, core.ErrUniqueViolation) && !errors.Is(insErr, core.ErrSerialization) {
						t.Fatalf("round %d: the INSERT lost with %v", r, insErr)
					}
				} else {
					wins[1]++
					if !errors.Is(bulkErr, core.ErrUniqueViolation) {
						t.Fatalf("round %d: the bulk insert lost with %v", r, bulkErr)
					}
				}
				tx := db.Begin()
				rec, err := tx.Get("T", core.Int(key))
				tx.Abort()
				if err != nil || !rec.Equal(want) {
					t.Fatalf("round %d: T[%d] = %v, %v; want %v", r, key, rec, err, want)
				}
			}
			t.Logf("bulk insert won %d rounds, INSERT %d", wins[0], wins[1])
			if held, queued := db.LockAudit(); held != 0 || queued != 0 {
				t.Fatalf("%d locks held, %d waiters", held, queued)
			}
		})
	}
}

// TestStressBulkInsertTraceChecks runs bulk inserts — some failing on a
// repeated key, some racing INSERTs — beside read-modify-write
// transactions and readers on an SI engine with a tracer, and hands the
// trace to both checkers: the online one and the post-hoc MVSG analysis
// accept it, and it passes lifecycle validation.
func TestStressBulkInsertTraceChecks(t *testing.T) {
	db := Open(Config{Mode: core.SnapshotFUW})
	defer db.Close()
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.BulkInsert(bulkRows(0, 64)); err != nil {
		t.Fatal(err)
	}
	rec := trace.New(trace.Options{ShardCap: 1 << 12})
	chk := onlinecheck.New(onlinecheck.Config{SIRules: true})
	sub := trace.Subscribe(rec, chk.Ingest, trace.SubOptions{Retain: true})
	db.SetTracer(rec)

	const batches = 40
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := w; b < batches; b += 2 {
				base := int64(64 * (b + 1))
				rows := bulkRows(base, base+64)
				if b%5 == 0 {
					rows = append(rows, rows[3]) // fails whole
				}
				if _, err := db.BulkInsert(rows); err != nil && !errors.Is(err, core.ErrUniqueViolation) {
					t.Error(err)
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // INSERTs of keys the bulk inserts want
		defer wg.Done()
		for b := 0; b < batches; b += 3 {
			k := int64(64*(b+1) + 5)
			tx := db.Begin()
			if err := tx.Insert("T", kv(k, -1)); err != nil {
				tx.Abort()
				continue
			}
			tx.Commit()
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() { // read-modify-write of one row, and two-row readers
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 400; i++ {
				k := core.Int(rng.Int63n(64 * batches))
				tx := db.Begin()
				rec, err := tx.Get("T", k)
				if err == nil && i%2 == 0 {
					err = tx.Update("T", k, kv(k.I, rec[1].I+1))
				} else if err == nil {
					_, err = tx.Get("T", core.Int(rng.Int63n(64*batches)))
				}
				if err != nil {
					tx.Abort()
					continue
				}
				tx.Commit()
			}
		}()
	}
	wg.Wait()
	db.SetTracer(nil)
	sub.Close()
	if n := rec.Dropped(); n != 0 {
		t.Fatalf("the recorder dropped %d events", n)
	}
	events := sub.Events()
	if err := trace.Validate(events); err != nil {
		t.Fatalf("trace validation: %v", err)
	}
	writes := map[uint64]int{}
	bulkCommits := 0
	for _, ev := range events {
		switch ev.Kind {
		case trace.EvWriteVer:
			writes[ev.Tx]++
		case trace.EvCommit:
			if writes[ev.Tx] >= 64 {
				bulkCommits++
			}
		}
	}
	if bulkCommits == 0 {
		t.Fatal("no bulk insert committed in the trace")
	}
	rep := chk.Finalize()
	if !rep.Serializable || rep.SIViolations != 0 {
		t.Fatalf("online checker on a trace with %d bulk commits:\n%s", bulkCommits, rep.Describe())
	}
	if r := checker.Analyze(checker.Txns(events)); !r.Serializable {
		t.Fatalf("MVSG analysis on a trace with %d bulk commits: cycle %v", bulkCommits, r.Cycle)
	}
}

// TestBulkInsertTracesLikeInserts: a bulk insert's events are those of a
// transaction inserting the same rows — begin and snapshot, a write per
// row, the log record, a committed version per row, the commit — and a
// failed one ends in an abort.
func TestBulkInsertTracesLikeInserts(t *testing.T) {
	db := Open(Config{Mode: core.SnapshotFUW})
	defer db.Close()
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	rec := trace.New(trace.Options{ShardCap: 1 << 10})
	db.SetTracer(rec)
	shape := func(evs []trace.Event) string {
		s := ""
		for _, ev := range evs {
			s += fmt.Sprintf("%v %s %v %d; ", ev.Kind, ev.Table, ev.Key, ev.CSN)
		}
		return s
	}
	byTx := func() map[uint64][]trace.Event {
		m := map[uint64][]trace.Event{}
		for _, ev := range rec.Drain() {
			m[ev.Tx] = append(m[ev.Tx], ev)
		}
		return m
	}

	tx := db.Begin()
	for _, r := range bulkRows(0, 3) {
		if err := tx.Insert(r.Table, r.Rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	inserted := byTx()[tx.ID()]
	if _, err := db.BulkInsert(bulkRows(10, 13)); err != nil {
		t.Fatal(err)
	}
	var bulk []trace.Event
	for _, evs := range byTx() {
		bulk = evs
	}
	for i := range inserted {
		// Same shape, other keys and CSNs.
		inserted[i].Key, inserted[i].CSN, bulk[i].Key, bulk[i].CSN = core.Value{}, 0, core.Value{}, 0
	}
	if got, want := shape(bulk), shape(inserted); got != want {
		t.Fatalf("bulk insert traced\n  %s\nINSERTs traced\n  %s", got, want)
	}

	if _, err := db.BulkInsert(bulkRows(0, 1)); !errors.Is(err, core.ErrUniqueViolation) {
		t.Fatal(err)
	}
	for _, evs := range byTx() {
		if last := evs[len(evs)-1]; last.Kind != trace.EvAbort {
			t.Fatalf("a failed bulk insert ended its trace with %v", last.Kind)
		}
	}
}
