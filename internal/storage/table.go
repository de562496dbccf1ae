package storage

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"sicost/internal/core"
	"sicost/internal/faultinject"
)

// tableStripeBits sets the number of hash partitions of a table's row
// map. Row lookups take one stripe's read lock, so row traffic on
// different stripes never contends on a map mutex even when inserts are
// growing the table.
const (
	tableStripeBits = 5
	tableStripes    = 1 << tableStripeBits
)

// rowSlab is how many row anchors a stripe allocates at a time.
const rowSlab = 64

// rowStripe is one partition of the row map.
type rowStripe struct {
	mu   sync.RWMutex
	rows keyMap[*Row]
	// slab is what is left of the block the next anchors are cut from:
	// anchors are never freed, so allocating them one by one buys
	// nothing (guarded by mu, write side).
	slab []Row
}

// Table is a versioned heap keyed by primary key, with any declared
// unique secondary indexes attached. The key→row map is hash-striped;
// the Row anchors themselves carry their own synchronization (lock-free
// version chains), so the stripes only guard map access.
type Table struct {
	schema *core.Schema

	stripes [tableStripes]rowStripe

	indexes []*UniqueIndex // parallel to schema.Unique

	// faults is the (possibly nil) fault-injection registry consulted
	// by the ReadRow/WriteRow access paths; installed via
	// Store.SetFaults before transactions run.
	faults *faultinject.Registry
}

// NewTable builds an empty table for a validated schema.
func NewTable(schema *core.Schema) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	t := &Table{schema: schema}
	for _, col := range schema.Unique {
		t.indexes = append(t.indexes, NewUniqueIndex(schema.Name, schema.Columns[col].Name, col))
	}
	return t, nil
}

// Schema returns the table's schema.
func (t *Table) Schema() *core.Schema { return t.schema }

// Name returns the table name.
func (t *Table) Name() string { return t.schema.Name }

// stripe returns the partition holding key.
func (t *Table) stripe(key core.Value) *rowStripe {
	return &t.stripes[stripeHash(key)>>(64-tableStripeBits)]
}

// Row returns the row anchor for key, or nil if the key has never been
// inserted (a NULL key or one of the other kind than the table's keys
// included).
func (t *Table) Row(key core.Value) *Row {
	s := t.stripe(key)
	s.mu.RLock()
	r := s.rows.get(key)
	s.mu.RUnlock()
	return r
}

// EnsureRow returns the row anchor for key, creating an empty anchor if
// needed (the insert path). key must not be NULL. It takes the stripe's
// write lock outright: its callers, an INSERT and recovery, almost
// always create the anchor, so a read-locked probe first would only add
// a lock round trip and a map lookup.
func (t *Table) EnsureRow(key core.Value) *Row {
	s := t.stripe(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.rows.get(key)
	if r == nil {
		if len(s.slab) == 0 {
			s.slab = make([]Row, rowSlab)
		}
		r, s.slab = &s.slab[0], s.slab[1:]
		s.rows.put(key, r)
	}
	return r
}

// rangeEntry is one anchor Range copied out of a stripe.
type rangeEntry struct {
	key core.Value
	row *Row
}

// Range calls fn for every row anchor of the table, in no particular
// order, until fn returns false. Each stripe's anchors are copied out
// under its read lock and visited after the lock is released, so fn may
// block, and inserts proceed while it runs. Every anchor present when
// Range starts is visited exactly once; one inserted meanwhile may or
// may not be. Anchors are never removed, so a walk that starts after a
// cut was taken visits every row committed at or below that cut.
func (t *Table) Range(fn func(key core.Value, row *Row) bool) {
	var buf []rangeEntry
	for i := range t.stripes {
		s := &t.stripes[i]
		buf = buf[:0]
		s.mu.RLock()
		for k, r := range s.rows.ints {
			buf = append(buf, rangeEntry{core.Int(k), r})
		}
		for k, r := range s.rows.strs {
			buf = append(buf, rangeEntry{core.Str(k), r})
		}
		s.mu.RUnlock()
		for _, e := range buf {
			if !fn(e.key, e.row) {
				return
			}
		}
	}
}

// Fault-point names of the storage row-access paths.
const (
	// FaultRowRead fires on every transactional row lookup (engine
	// Get/ReadForUpdate and the read half of updates/deletes).
	FaultRowRead = "storage/row/read"
	// FaultRowWrite fires on every transactional row-write access
	// (engine Update/Insert/Delete, before the version is installed).
	FaultRowWrite = "storage/row/write"
)

// ReadRow is Row behind the FaultRowRead point: the transactional read
// path, so chaos runs can fail or stall point reads per table/key.
func (t *Table) ReadRow(txID uint64, key core.Value) (*Row, error) {
	if t.faults != nil {
		if err := t.faults.Fire(FaultRowRead, faultinject.Ctx{Tx: txID, Table: t.schema.Name, Key: key}); err != nil {
			return nil, err
		}
	}
	return t.Row(key), nil
}

// WriteRow is Row behind the FaultRowWrite point: the update/delete
// write path (the row must already exist).
func (t *Table) WriteRow(txID uint64, key core.Value) (*Row, error) {
	if t.faults != nil {
		if err := t.faults.Fire(FaultRowWrite, faultinject.Ctx{Tx: txID, Table: t.schema.Name, Key: key}); err != nil {
			return nil, err
		}
	}
	return t.Row(key), nil
}

// EnsureWriteRow is EnsureRow behind the FaultRowWrite point: the
// insert path, which creates the anchor when absent.
func (t *Table) EnsureWriteRow(txID uint64, key core.Value) (*Row, error) {
	if t.faults != nil {
		if err := t.faults.Fire(FaultRowWrite, faultinject.Ctx{Tx: txID, Table: t.schema.Name, Key: key}); err != nil {
			return nil, err
		}
	}
	return t.EnsureRow(key), nil
}

// Indexes returns the table's unique secondary indexes.
func (t *Table) Indexes() []*UniqueIndex { return t.indexes }

// RowCount returns the number of row anchors (including tombstoned rows).
func (t *Table) RowCount() int {
	n := 0
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.RLock()
		n += s.rows.len()
		s.mu.RUnlock()
	}
	return n
}

// Store is a named collection of tables: one simulated database. Its
// catalog is copy-on-write: CreateTable publishes a new map, so a
// statement's table lookup is an atomic load and a map read, with no
// lock word shared by every statement.
type Store struct {
	mu     sync.Mutex // serializes catalog writers; guards faults
	tables atomic.Pointer[map[string]*Table]
	faults *faultinject.Registry
}

// SetFaults installs the fault registry on the store and every table,
// current and future. Must be called before transactions are in flight.
func (s *Store) SetFaults(r *faultinject.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = r
	for _, t := range *s.tables.Load() {
		t.faults = r
	}
}

// NewStore creates an empty store.
func NewStore() *Store {
	s := &Store{}
	s.tables.Store(&map[string]*Table{})
	return s
}

// CreateTable adds a table for schema; it fails if the name exists.
func (s *Store) CreateTable(schema *core.Schema) (*Table, error) {
	t, err := NewTable(schema)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.tables.Load()
	if _, dup := old[schema.Name]; dup {
		return nil, fmt.Errorf("storage: table %s already exists", schema.Name)
	}
	t.faults = s.faults
	tables := maps.Clone(old)
	tables[schema.Name] = t
	s.tables.Store(&tables)
	return t, nil
}

// Table returns the named table, or an error if absent.
func (s *Store) Table(name string) (*Table, error) {
	t, ok := (*s.tables.Load())[name]
	if !ok {
		return nil, fmt.Errorf("storage: no such table %s", name)
	}
	return t, nil
}

// MustTable is Table for callers that know the schema exists (the
// benchmark programs, which create their tables at load time).
func (s *Store) MustTable(name string) *Table {
	t, err := s.Table(name)
	if err != nil {
		panic(err)
	}
	return t
}

// TableNames lists tables in sorted order.
func (s *Store) TableNames() []string {
	tables := *s.tables.Load()
	names := make([]string, 0, len(tables))
	for n := range tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
