package engine

import (
	"fmt"
	"slices"
	"strings"

	"sicost/internal/core"
	"sicost/internal/faultinject"
	"sicost/internal/storage"
	"sicost/internal/trace"
	"sicost/internal/wal"
)

// BulkInsert commits rows as one write-only transaction that inserts
// them: the way a database is loaded. Each row is a new row of the table
// it names, under a key that table has never held; Key must be its
// record's primary key. The commit takes one CSN and logs one commit
// frame carrying rows, as a transaction inserting them one by one would,
// but the rows are created in bulk (storage.Table.InsertRows, and
// storage.UniqueIndex.InsertRows for the unique indexes). The commit is
// asynchronous: BulkInsert returns the CSN once the rows are published,
// and DB.WaitDurable(csn) waits for the log. rows is not kept.
//
// All or nothing: a key the table holds or a unique value it has —
// whether committed or another transaction's in flight — and a key or
// value repeated among rows, install nothing and fail with
// core.ErrUniqueViolation, taking no CSN; a record that breaks its
// table's schema fails with the schema's error. Until the rows are
// published an INSERT into their tables waits. A bulk insert reads
// nothing and takes no row lock: under Strict2PL a reader sees its rows
// from the moment they are stamped with the CSN, a moment before they
// are published. With a tracer installed it emits what a transaction
// inserting the rows would: EvWrite for each row, then EvWriteVer for
// each row and EvCommit.
func (db *DB) BulkInsert(rows []wal.RowImage) (uint64, error) {
	tx := db.Begin()
	defer tx.Abort() // a panic out of a fault point; a no-op once ended
	tx.SetAsync(true)
	if err := tx.insertRows(rows); err != nil {
		tx.abortCause = err
		tx.Abort()
		return 0, err
	}
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	return tx.CommitCSN(), nil
}

// insertRows is BulkInsert's one statement: it places rows as tx's
// uncommitted versions and indexes them. Commit stamps, publishes and
// releases them with the rest of the transaction's writes; Abort takes
// them out again. Each table's batch holds the table's stripe mutexes
// until then, so tx may insert nothing else into those tables.
func (tx *Tx) insertRows(rows []wal.RowImage) error {
	if err := tx.stmt(); err != nil {
		return err
	}
	db := tx.db
	if db.tracer.Enabled() {
		for i := range rows {
			tx.traceStmt(trace.EvWrite, rows[i].Table, rows[i].Key)
		}
	}
	tables, err := db.groupRows(len(rows), func(i int) (string, core.Value, core.Record, uint64) {
		r := &rows[i]
		return r.Table, r.Key, r.Rec, 0
	})
	if err != nil {
		return err
	}
	if db.faults != nil {
		for _, t := range tables {
			if err := db.faults.Fire(storage.FaultRowWrite, faultinject.Ctx{Tx: tx.id, Table: t.tbl.Name()}); err != nil {
				return err
			}
		}
	}
	if err := placeRows(tx.id, tables); err != nil {
		return err
	}
	tx.bulk, tx.bulkRows = tables, rows
	for _, t := range tables {
		for _, ix := range t.tbl.Indexes() {
			if err := ix.InsertRows(tx.id, len(t.rows), t.image); err != nil {
				return err
			}
		}
	}
	return nil
}

// bulkImage yields the i-th row of a bulk install: its table's name, its
// key, its record and its CSN (0: uncommitted).
type bulkImage func(i int) (table string, key core.Value, rec core.Record, csn uint64)

// bulkTable is one table's share of a bulk install: the positions of its
// rows among the install's, its image of them, and the batch
// Table.InsertRows placed.
type bulkTable struct {
	tbl   *storage.Table
	rows  []int32
	image storage.Image
	ins   *storage.Inserted
}

// groupRows readies n new rows for placeRows: it checks each row against
// its table's schema and groups the rows by table, in table-name order,
// so two bulk installs take the stripe mutexes of the tables they share
// in the same order.
func (db *DB) groupRows(n int, row bulkImage) ([]bulkTable, error) {
	var (
		tables []bulkTable
		counts []int
	)
	which := make([]int32, n) // each row's position in tables
	last := -1
	for i := range n {
		name, key, rec, _ := row(i)
		if last < 0 || tables[last].tbl.Name() != name {
			last = slices.IndexFunc(tables, func(t bulkTable) bool { return t.tbl.Name() == name })
			if last < 0 {
				tbl, err := db.store.Table(name)
				if err != nil {
					return nil, err
				}
				tables, counts = append(tables, bulkTable{tbl: tbl}), append(counts, 0)
				last = len(tables) - 1
			}
		}
		tbl := tables[last].tbl
		if rec == nil {
			return nil, fmt.Errorf("engine: a new %s row under key %v has no record", tbl.Name(), key)
		}
		if err := checkImage(tbl, key, rec); err != nil {
			return nil, err
		}
		which[i] = int32(last)
		counts[last]++
	}
	// Lay the positions out table by table in one array.
	pos := make([]int32, 0, n)
	for i, k := range counts {
		tables[i].rows = pos[len(pos):len(pos)]
		pos = pos[:len(pos)+k]
	}
	for i, t := range which {
		tables[t].rows = append(tables[t].rows, int32(i))
	}
	slices.SortFunc(tables, func(a, b bulkTable) int { return strings.Compare(a.tbl.Name(), b.tbl.Name()) })
	for i := range tables {
		rows := tables[i].rows
		tables[i].image = func(j int) (core.Value, core.Record, uint64) {
			_, key, rec, csn := row(int(rows[j]))
			return key, rec, csn
		}
	}
	return tables, nil
}

// placeRows places each table's share of a bulk install with
// storage.Table.InsertRows: uncommitted versions by creator, or, with
// creator 0, rows committed at their own CSNs. All or nothing: on an
// error no row stays placed. The caller ends every table's batch, with
// Release or Abort.
func placeRows(creator uint64, tables []bulkTable) error {
	for i := range tables {
		t := &tables[i]
		var err error
		if t.ins, err = t.tbl.InsertRows(creator, len(t.rows), t.image); err != nil {
			for _, done := range tables[:i] {
				done.ins.Abort()
			}
			return err
		}
	}
	return nil
}

// checkImage refuses a row image no row of tbl can carry: one under a
// NULL key (the row map has no slot for it), or a record (nil: a
// deletion) that breaks tbl's schema or whose primary key is not key. A
// log whose checksums pass but whose images do not fit its own schema
// frames is corrupt, and recovery rejects it with this error rather than
// panic later.
func checkImage(tbl *storage.Table, key core.Value, rec core.Record) error {
	if key.IsNull() {
		return fmt.Errorf("engine: %s row under a NULL key", tbl.Name())
	}
	if rec == nil {
		return nil
	}
	if err := tbl.Schema().CheckRecord(rec); err != nil {
		return err
	}
	if k := tbl.Schema().Key(rec); k != key {
		return fmt.Errorf("engine: %s row under key %v has primary key %v", tbl.Name(), key, k)
	}
	return nil
}
