package storage

import (
	"testing"
	"unsafe"

	"sicost/internal/core"
)

func checkingSchema() *core.Schema {
	return &core.Schema{
		Name: "Checking",
		Columns: []core.Column{
			{Name: "CustomerID", Kind: core.KindInt, NotNull: true},
			{Name: "Balance", Kind: core.KindInt, NotNull: true},
		},
		PK: 0,
	}
}

func accountSchema() *core.Schema {
	return &core.Schema{
		Name: "Account",
		Columns: []core.Column{
			{Name: "Name", Kind: core.KindString, NotNull: true},
			{Name: "CustomerID", Kind: core.KindInt, NotNull: true},
		},
		PK:     0,
		Unique: []int{1},
	}
}

func TestNewTableRejectsBadSchema(t *testing.T) {
	if _, err := NewTable(&core.Schema{Name: ""}); err == nil {
		t.Fatal("invalid schema accepted")
	}
}

func TestTableEnsureRowIdempotent(t *testing.T) {
	tbl, err := NewTable(checkingSchema())
	if err != nil {
		t.Fatal(err)
	}
	r1 := tbl.EnsureRow(core.Int(1))
	r2 := tbl.EnsureRow(core.Int(1))
	if r1 != r2 {
		t.Fatal("EnsureRow must return the same anchor")
	}
	if tbl.Row(core.Int(1)) != r1 {
		t.Fatal("Row must find the anchor")
	}
	for _, k := range []core.Value{core.Int(2), core.Str("1"), core.Null()} {
		if tbl.Row(k) != nil {
			t.Fatalf("Row(%v) found an anchor; want nil", k)
		}
	}
	if tbl.RowCount() != 1 {
		t.Fatalf("RowCount = %d", tbl.RowCount())
	}
}

func TestTableIndexesFromSchema(t *testing.T) {
	tbl, err := NewTable(accountSchema())
	if err != nil {
		t.Fatal(err)
	}
	ixs := tbl.Indexes()
	if len(ixs) != 1 {
		t.Fatalf("indexes = %d, want 1", len(ixs))
	}
	if ixs[0].Column() != "CustomerID" || ixs[0].ColPos() != 1 {
		t.Fatalf("index on %s pos %d", ixs[0].Column(), ixs[0].ColPos())
	}
}

func TestStoreCreateAndLookup(t *testing.T) {
	s := NewStore()
	if _, err := s.CreateTable(checkingSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable(checkingSchema()); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if _, err := s.Table("Checking"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Table("Nope"); err == nil {
		t.Fatal("missing table lookup succeeded")
	}
	if _, err := s.CreateTable(accountSchema()); err != nil {
		t.Fatal(err)
	}
	names := s.TableNames()
	if len(names) != 2 || names[0] != "Account" || names[1] != "Checking" {
		t.Fatalf("TableNames = %v", names)
	}
	if s.MustTable("Account") == nil {
		t.Fatal("MustTable failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustTable on missing table must panic")
		}
	}()
	s.MustTable("Missing")
}

func TestUniqueIndexLifecycle(t *testing.T) {
	ix := NewUniqueIndex("Account", "CustomerID", 1)

	// tx 1 inserts, visible to itself only.
	if err := ix.Insert(1, core.Int(100), core.Str("alice")); err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.Lookup(0, 1, core.Int(100)); !ok {
		t.Fatal("creator must see own entry")
	}
	if _, ok := ix.Lookup(10, 2, core.Int(100)); ok {
		t.Fatal("uncommitted entry leaked to another txn")
	}

	// Conflicting insert by another in-flight txn is rejected.
	if err := ix.Insert(2, core.Int(100), core.Str("bob")); err != core.ErrUniqueViolation {
		t.Fatalf("conflicting insert err = %v", err)
	}
	// Idempotent re-insert by the creator is allowed.
	if err := ix.Insert(1, core.Int(100), core.Str("alice")); err != nil {
		t.Fatalf("re-insert by creator: %v", err)
	}

	ix.Commit(1, 5, 0)
	if pk, ok := ix.Lookup(5, 9, core.Int(100)); !ok || pk != core.Str("alice") {
		t.Fatalf("post-commit lookup = %v, %v", pk, ok)
	}
	if _, ok := ix.Lookup(4, 9, core.Int(100)); ok {
		t.Fatal("entry visible to pre-commit snapshot")
	}

	// Committed duplicate still rejected.
	if err := ix.Insert(3, core.Int(100), core.Str("carol")); err != core.ErrUniqueViolation {
		t.Fatalf("duplicate vs committed err = %v", err)
	}

	// Delete then reuse the value.
	ix.Delete(4, core.Int(100))
	if _, ok := ix.Lookup(10, 4, core.Int(100)); ok {
		t.Fatal("deleter must see its tombstone")
	}
	if _, ok := ix.Lookup(10, 9, core.Int(100)); !ok {
		t.Fatal("tombstone leaked before commit")
	}
	ix.Commit(4, 6, 0)
	if _, ok := ix.Lookup(6, 9, core.Int(100)); ok {
		t.Fatal("entry visible after committed delete")
	}
	if err := ix.Insert(5, core.Int(100), core.Str("dave")); err != nil {
		t.Fatalf("reuse after committed delete: %v", err)
	}
}

func TestUniqueIndexAbortCleans(t *testing.T) {
	ix := NewUniqueIndex("Account", "CustomerID", 1)
	if err := ix.Insert(1, core.Int(7), core.Str("a")); err != nil {
		t.Fatal(err)
	}
	ix.Abort(1)
	if _, ok := ix.Lookup(100, 1, core.Int(7)); ok {
		t.Fatal("aborted entry survived")
	}
	// Value is free again.
	if err := ix.Insert(2, core.Int(7), core.Str("b")); err != nil {
		t.Fatalf("insert after abort: %v", err)
	}
	ix.Commit(2, 3, 0)
	if pk, ok := ix.Lookup(3, 9, core.Int(7)); !ok || pk != core.Str("b") {
		t.Fatal("post-abort reinsert lost")
	}
}

// TestStripesAreWholeLines: a row-map stripe is two 64-byte lines, the
// one every lookup reads and the one an insert writes, a lock table's
// per-transaction shard is one, and a table's stripes start its
// allocation, which the allocator puts on a line boundary (a table is
// over 512 bytes).
func TestStripesAreWholeLines(t *testing.T) {
	var s rowStripe
	var tbl Table
	if unsafe.Sizeof(s) != 128 || unsafe.Offsetof(s.mu) != 64 {
		t.Errorf("row stripe: %d bytes, writers' line at byte %d", unsafe.Sizeof(s), unsafe.Offsetof(s.mu))
	}
	if n := unsafe.Sizeof(txShard{}); n != 64 {
		t.Errorf("transaction shard: %d bytes", n)
	}
	if unsafe.Offsetof(tbl.stripes) != 0 || unsafe.Sizeof(tbl) <= 512 {
		t.Errorf("table: stripes at byte %d of %d", unsafe.Offsetof(tbl.stripes), unsafe.Sizeof(tbl))
	}
}
