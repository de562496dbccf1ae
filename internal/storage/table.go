package storage

import (
	"fmt"
	"sort"
	"sync"

	"sicost/internal/core"
	"sicost/internal/faultinject"
)

// tableStripes is the number of hash partitions of a table's row map
// (a power of two). Row lookups take one stripe's read lock, so row
// traffic on different stripes never contends on a map mutex even when
// inserts are growing the table.
const tableStripes = 32

// rowSlab is how many row anchors a stripe allocates at a time.
const rowSlab = 64

// rowStripe is one partition of the row map.
type rowStripe struct {
	mu   sync.RWMutex
	rows map[core.Value]*Row
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
	for i := range t.stripes {
		t.stripes[i].rows = make(map[core.Value]*Row)
	}
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
	return &t.stripes[hashValue(key)&(tableStripes-1)]
}

// Row returns the row anchor for key, or nil if the key has never been
// inserted.
func (t *Table) Row(key core.Value) *Row {
	s := t.stripe(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rows[key]
}

// EnsureRow returns the row anchor for key, creating an empty anchor if
// needed (the insert path).
func (t *Table) EnsureRow(key core.Value) *Row {
	s := t.stripe(key)
	s.mu.RLock()
	r := s.rows[key]
	s.mu.RUnlock()
	if r != nil {
		return r
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r = s.rows[key]; r == nil {
		if len(s.slab) == 0 {
			s.slab = make([]Row, rowSlab)
		}
		r, s.slab = &s.slab[0], s.slab[1:]
		s.rows[key] = r
	}
	return r
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

// Keys returns all primary keys with at least one version, sorted; used
// by scans, the loader's verification pass and tests.
func (t *Table) Keys() []core.Value {
	var keys []core.Value
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.RLock()
		for k := range s.rows {
			keys = append(keys, k)
		}
		s.mu.RUnlock()
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	return keys
}

// RowCount returns the number of row anchors (including tombstoned rows).
func (t *Table) RowCount() int {
	n := 0
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.RLock()
		n += len(s.rows)
		s.mu.RUnlock()
	}
	return n
}

// Store is a named collection of tables: one simulated database.
type Store struct {
	mu     sync.RWMutex
	tables map[string]*Table
	faults *faultinject.Registry
}

// SetFaults installs the fault registry on the store and every table,
// current and future. Must be called before transactions are in flight.
func (s *Store) SetFaults(r *faultinject.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = r
	for _, t := range s.tables {
		t.faults = r
	}
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{tables: make(map[string]*Table)}
}

// CreateTable adds a table for schema; it fails if the name exists.
func (s *Store) CreateTable(schema *core.Schema) (*Table, error) {
	t, err := NewTable(schema)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tables[schema.Name]; dup {
		return nil, fmt.Errorf("storage: table %s already exists", schema.Name)
	}
	t.faults = s.faults
	s.tables[schema.Name] = t
	return t, nil
}

// Table returns the named table, or an error if absent.
func (s *Store) Table(name string) (*Table, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[name]
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
	s.mu.RLock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}
