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
// map. Inserts take one stripe's mutex, so inserts growing the table on
// different stripes never contend; lookups take none.
const (
	tableStripeBits = 5
	tableStripes    = 1 << tableStripeBits
)

// rowSlab is how many row anchors a stripe allocates at a time.
const rowSlab = 64

// rowStripe is one partition of the row map: an open-addressing table of
// anchors that Row reads without a lock and without writing anything,
// so that two processors reading the same rows share their lines
// read-only. Anchors are never freed or moved: a lookup only has to find
// one that was published, and an anchor published in a slot stays there
// until the whole table is replaced by a larger copy.
type rowStripe struct {
	tab atomic.Pointer[anchorTable]
	// mu serializes the writers (EnsureRow). n counts the anchors and slab
	// is what is left of the block the next anchors are cut from:
	// anchors are never freed, so allocating them one by one buys
	// nothing. Both are guarded by mu. An insert writes this line, not
	// tab's, which every lookup reads; a stripe is two whole lines.
	_    [56]byte
	mu   sync.Mutex
	n    int
	slab []anchor
	_    [24]byte
}

// anchor is a row anchor with its primary key.
type anchor struct {
	key core.Value
	row Row
}

// anchorTable is a power-of-two array of anchor slots, probed linearly
// from the slot the top bits of the key's hash (below the stripe's)
// select. A slot keeps its anchor's hash beside the pointer, so a probe
// past other keys reads no anchor but the one it finds. A slot is set
// once, its hash before the atomic store of the complete anchor; the
// table is replaced, never resized in place, and a replaced one is never
// written again.
type anchorTable struct {
	slots []anchorSlot
	shift uint // 64 − log2(len(slots))
}

type anchorSlot struct {
	hash   uint64
	anchor atomic.Pointer[anchor]
}

func newAnchorTable(bits uint) *anchorTable {
	return &anchorTable{slots: make([]anchorSlot, 1<<bits), shift: 64 - bits}
}

// find returns the anchor of key, hashed to h, or nil.
func (t *anchorTable) find(key core.Value, h uint64) *anchor {
	mask := uint64(len(t.slots) - 1)
	for i := h << tableStripeBits >> t.shift; ; i = (i + 1) & mask {
		s := &t.slots[i]
		a := s.anchor.Load()
		if a == nil || s.hash == h && a.key == key {
			return a
		}
	}
}

// place publishes a, whose key hashes to h, in the first free slot from
// its hash. The caller holds the stripe's mutex and the table has a free
// slot.
func (t *anchorTable) place(a *anchor, h uint64) {
	mask := uint64(len(t.slots) - 1)
	i := h << tableStripeBits >> t.shift
	for t.slots[i].anchor.Load() != nil {
		i = (i + 1) & mask
	}
	t.slots[i].hash = h
	t.slots[i].anchor.Store(a)
}

// Table is a versioned heap keyed by primary key, with any declared
// unique secondary indexes attached. The key→row map is hash-striped;
// the Row anchors themselves carry their own synchronization (lock-free
// version chains), so the stripes only guard map access.
type Table struct {
	// stripes come first: the table is one allocation of more than 512
	// bytes, which the allocator's size classes place on a line
	// boundary, so each stripe starts a line.
	stripes [tableStripes]rowStripe

	schema *core.Schema

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

// stripe returns the partition holding a key that hashes to h.
func (t *Table) stripe(h uint64) *rowStripe {
	return &t.stripes[h>>(64-tableStripeBits)]
}

// Row returns the row anchor for key, or nil if the key has never been
// inserted (a NULL key or one of the other kind than the table's keys
// included). It takes no lock and writes nothing.
func (t *Table) Row(key core.Value) *Row {
	h := stripeHash(key)
	tab := t.stripe(h).tab.Load()
	if tab == nil {
		return nil
	}
	if a := tab.find(key, h); a != nil {
		return &a.row
	}
	return nil
}

// EnsureRow returns the row anchor for key, creating an empty anchor if
// needed (the insert path). key must not be NULL. It takes the stripe's
// mutex outright: its callers, an INSERT and recovery, almost always
// create the anchor, so a lock-free probe first would only add a lookup.
func (t *Table) EnsureRow(key core.Value) *Row {
	if key.K != core.KindInt && key.K != core.KindString {
		panic(fmt.Sprintf("storage: a %s key has no slot", key.K))
	}
	h := stripeHash(key)
	s := t.stripe(h)
	s.mu.Lock()
	defer s.mu.Unlock()
	tab := s.tab.Load()
	if tab != nil {
		if a := tab.find(key, h); a != nil {
			return &a.row
		}
	}
	// At most three quarters full: a probe that finds its key reads two
	// or three slots and one anchor (the slots keep the hashes), and the
	// slots cost a row 16 to 32 bytes.
	if tab == nil || 4*(s.n+1) > 3*len(tab.slots) {
		bits := uint(3)
		if tab != nil {
			bits = 65 - tab.shift
		}
		grown := newAnchorTable(bits)
		if tab != nil {
			for i := range tab.slots {
				if a := tab.slots[i].anchor.Load(); a != nil {
					grown.place(a, tab.slots[i].hash)
				}
			}
		}
		tab = grown
		s.tab.Store(tab)
	}
	if len(s.slab) == 0 {
		s.slab = make([]anchor, rowSlab)
	}
	a := &s.slab[0]
	s.slab = s.slab[1:]
	a.key = key
	tab.place(a, h)
	s.n++
	return &a.row
}

// Range calls fn for every row anchor of the table, in no particular
// order, until fn returns false. It walks each stripe's table as it was
// when the walk reached the stripe, holding no lock, so fn may block,
// and inserts proceed while it runs. Every anchor present when Range
// starts is visited exactly once; one inserted meanwhile may or may not
// be. Anchors are never removed, so a walk that starts after a cut was
// taken visits every row committed at or below that cut.
func (t *Table) Range(fn func(key core.Value, row *Row) bool) {
	for i := range t.stripes {
		tab := t.stripes[i].tab.Load()
		if tab == nil {
			continue
		}
		for j := range tab.slots {
			if a := tab.slots[j].anchor.Load(); a != nil && !fn(a.key, &a.row) {
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
		s.mu.Lock()
		n += s.n
		s.mu.Unlock()
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
