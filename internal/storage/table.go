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
// until the whole table is replaced by a larger copy — unless a bulk
// insert that fails takes it back (InsertRows), before any version in it
// was committed.
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
// once, its hash before the atomic store of the complete anchor, except
// that a bulk insert that fails empties the slots it set (remove); the
// table is replaced, never resized in place, and a replaced one is never
// written again.
type anchorTable struct {
	slots []anchorSlot
	shift uint // 64 − log2(len(slots))
}

type anchorSlot struct {
	hash   atomic.Uint64
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
		if a == nil || s.hash.Load() == h && a.key == key {
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
	t.slots[i].hash.Store(h)
	t.slots[i].anchor.Store(a)
}

// remove empties the slot holding a, whose key hashes to h. The caller
// holds the stripe's mutex, and a is the anchor placed last among those
// still in the table (Inserted.unplace).
func (t *anchorTable) remove(a *anchor, h uint64) {
	mask := uint64(len(t.slots) - 1)
	i := h << tableStripeBits >> t.shift
	for t.slots[i].anchor.Load() != a {
		i = (i + 1) & mask
	}
	t.slots[i].anchor.Store(nil)
	t.slots[i].hash.Store(0)
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
	tab = s.reserve(1)
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

// reserve returns s's anchor table with room for k more anchors,
// replacing it by a larger copy when it has not. At most three quarters
// full: a probe that finds its key reads two or three slots and one
// anchor (the slots keep the hashes), and the slots cost a row 16 to 32
// bytes. The caller holds s.mu.
func (s *rowStripe) reserve(k int) *anchorTable {
	tab := s.tab.Load()
	if tab != nil && 4*(s.n+k) <= 3*len(tab.slots) {
		return tab
	}
	bits := uint(3)
	for 4*(s.n+k) > 3<<bits {
		bits++
	}
	grown := newAnchorTable(bits)
	if tab != nil {
		for i := range tab.slots {
			if a := tab.slots[i].anchor.Load(); a != nil {
				grown.place(a, tab.slots[i].hash.Load())
			}
		}
	}
	s.tab.Store(grown)
	return grown
}

// Image yields the i-th row of a bulk insert: its primary key (never
// NULL), its record, and the CSN it is committed at (0: uncommitted).
type Image func(i int) (key core.Value, rec core.Record, csn uint64)

// Inserted is a batch of rows InsertRows placed in a table. Until
// Release or Abort it holds every stripe mutex of the table, so no
// other insert into the table — an INSERT's EnsureRow, another bulk
// insert — runs meanwhile.
type Inserted struct {
	t       *Table
	anchors []anchor // one per row, in row order
}

// InsertRows places n rows, each a new row whose chain is the one
// version image(i) describes, created by creator. Every key must be one
// the table has never held: a key with an anchor — a live row, a
// deleted one, one whose insert is in flight or rolled back — is taken.
// All or nothing: a taken key, or one that repeats among the n, places
// no row and fails with core.ErrUniqueViolation.
//
// It is the bulk form of EnsureRow and Row.Install: it takes each
// stripe's mutex once, sizes each stripe's table once for what the
// batch adds to it, and cuts the anchors, and the versions of the
// records of at most two columns, from one allocation each. The placed
// rows are found by lock-free lookups at once, so a version created
// uncommitted (CSN 0) stays invisible until Stamp commits it; until then
// a lookup finds a row nobody's snapshot sees, and an insert of the key
// waits for Release. The caller ends the batch with Release, or with
// Abort, which takes every row out again.
func (t *Table) InsertRows(creator uint64, n int, image Image) (*Inserted, error) {
	for i := range t.stripes {
		t.stripes[i].mu.Lock()
	}
	var adds [tableStripes]int
	hashes := make([]uint64, n)
	for i := range hashes {
		key, _, _ := image(i)
		if key.K != core.KindInt && key.K != core.KindString {
			t.unlockStripes()
			panic(fmt.Sprintf("storage: a %s key has no slot", key.K))
		}
		hashes[i] = stripeHash(key)
		adds[hashes[i]>>(64-tableStripeBits)]++
	}
	for i := range t.stripes {
		if adds[i] > 0 {
			t.stripes[i].reserve(adds[i])
		}
	}
	b := &Inserted{t: t, anchors: make([]anchor, n)}
	var slab []inlineVersion
	for i, h := range hashes {
		key, rec, csn := image(i)
		s := t.stripe(h)
		tab := s.tab.Load()
		if tab.find(key, h) != nil {
			b.unplace(i)
			t.unlockStripes()
			return nil, core.ErrUniqueViolation
		}
		var v *Version
		if inlines(rec) {
			if slab == nil {
				slab = make([]inlineVersion, n-i)
			}
			slab[0].init(rec, creator)
			v, slab = &slab[0].Version, slab[1:]
		} else {
			v = NewVersion(rec, creator)
		}
		v.csn.Store(csn)
		a := &b.anchors[i]
		a.key = key
		a.row.head.Store(v)
		tab.place(a, h)
		s.n++
	}
	return b, nil
}

// Stamp commits every version the batch created at csn.
func (b *Inserted) Stamp(csn uint64) {
	for i := range b.anchors {
		b.anchors[i].row.Head().MarkCommitted(csn)
	}
}

// Release ends the batch: its rows stay, and inserts into the table go
// on.
func (b *Inserted) Release() { b.t.unlockStripes() }

// Abort ends the batch taking every row it placed out of the table, as
// if it had never been placed.
func (b *Inserted) Abort() {
	b.unplace(len(b.anchors))
	b.t.unlockStripes()
}

// unplace takes the first n anchors of the batch out of their stripes'
// tables, last first. Under the stripe mutexes nobody has placed an
// anchor since, so emptying the slots in the reverse of the order they
// were filled leaves each table as it was before the batch: no key
// placed before it has a probe path through a slot of the batch. A
// lookup that found one of them meanwhile holds a row with no version
// its snapshot sees.
func (b *Inserted) unplace(n int) {
	for i := n - 1; i >= 0; i-- {
		a := &b.anchors[i]
		h := stripeHash(a.key)
		s := b.t.stripe(h)
		s.tab.Load().remove(a, h)
		s.n--
	}
}

func (t *Table) unlockStripes() {
	for i := range t.stripes {
		t.stripes[i].mu.Unlock()
	}
}

// Range calls fn for every row anchor of the table, in no particular
// order, until fn returns false. It walks each stripe's table as it was
// when the walk reached the stripe, holding no lock, so fn may block,
// and inserts proceed while it runs. Every anchor present when Range
// starts is visited exactly once; one inserted meanwhile may or may not
// be. The only anchors ever removed are those of a failed bulk insert,
// which never held a committed version, so a walk that starts after a
// cut was taken visits every row committed at or below that cut.
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
