package storage

import (
	"sync"

	"sicost/internal/core"
)

// indexEntry is one versioned mapping from an indexed column value to a
// primary key. Entries carry creator/CSN like row versions so that
// aborted inserts leave no trace and snapshot reads of the index are
// consistent.
type indexEntry struct {
	val     core.Value
	pk      core.Value
	creator uint64
	csn     uint64 // 0 while the creating transaction is in flight
	deleted bool   // tombstone written by a delete
}

// indexStripeBits sets the number of hash partitions of an index's
// entry map. Lookups take a stripe read lock, so the hot read path
// (SmallBank resolves every customer name through the Account index)
// scales with cores instead of serializing on one mutex.
const (
	indexStripeBits = 4
	indexStripes    = 1 << indexStripeBits
)

// indexStripe is one partition of the entry map.
type indexStripe struct {
	mu      sync.RWMutex
	entries keyMap[[]*indexEntry] // newest first
}

// UniqueIndex is a unique secondary index: at most one live committed
// entry per indexed value. SmallBank declares one on Account.CustomerID.
// Entry chains are striped by indexed value; the per-transaction
// pending lists live under their own mutex (they are touched once per
// write and once at commit/abort, never on the read path). NULL is not
// a value here, as in SQL: a nullable unique column holds any number of
// NULLs, none of them is indexed, and looking up NULL finds nothing.
type UniqueIndex struct {
	table  string
	column string
	colPos int

	stripes [indexStripes]indexStripe

	pendMu  sync.Mutex
	pending map[uint64][]*indexEntry // per in-flight transaction
}

// NewUniqueIndex creates an empty index over the column at position
// colPos of the named table.
func NewUniqueIndex(table, column string, colPos int) *UniqueIndex {
	return &UniqueIndex{
		table:   table,
		column:  column,
		colPos:  colPos,
		pending: make(map[uint64][]*indexEntry),
	}
}

// Column returns the indexed column's name.
func (ix *UniqueIndex) Column() string { return ix.column }

// ColPos returns the indexed column's position in the table schema.
func (ix *UniqueIndex) ColPos() int { return ix.colPos }

// stripe returns the partition holding val's entry chain.
func (ix *UniqueIndex) stripe(val core.Value) *indexStripe {
	return &ix.stripes[stripeHash(val)>>(64-indexStripeBits)]
}

// addPending records e on tx's pending list.
func (ix *UniqueIndex) addPending(tx uint64, e *indexEntry) {
	ix.pendMu.Lock()
	ix.pending[tx] = append(ix.pending[tx], e)
	ix.pendMu.Unlock()
}

// takePending removes and returns tx's pending list.
func (ix *UniqueIndex) takePending(tx uint64) []*indexEntry {
	ix.pendMu.Lock()
	list := ix.pending[tx]
	delete(ix.pending, tx)
	ix.pendMu.Unlock()
	return list
}

// Insert registers an uncommitted entry mapping val to pk for
// transaction tx. It returns core.ErrUniqueViolation when a conflicting
// entry exists: a committed live entry, or an uncommitted entry from
// another in-flight transaction (the engine does not block on index
// conflicts; the loader and tests are the only writers of indexed
// columns in the benchmark). A NULL val is not indexed.
func (ix *UniqueIndex) Insert(tx uint64, val, pk core.Value) error {
	if val.IsNull() {
		return nil
	}
	s := ix.stripe(val)
	s.mu.Lock()
	chain := s.entries.get(val)
	for _, e := range chain {
		if e.deleted {
			if e.csn != 0 || e.creator == tx {
				// Committed tombstone (or our own): value is free below
				// this point in the chain.
				break
			}
			continue
		}
		if e.creator == tx && e.csn == 0 && e.pk == pk {
			s.mu.Unlock()
			return nil // idempotent re-insert within the transaction
		}
		s.mu.Unlock()
		return core.ErrUniqueViolation
	}
	e := &indexEntry{val: val, pk: pk, creator: tx}
	s.entries.put(val, append([]*indexEntry{e}, chain...))
	s.mu.Unlock()
	ix.addPending(tx, e)
	return nil
}

// Delete registers an uncommitted tombstone for val written by tx. The
// tombstone becomes effective at commit; abort discards it. A NULL val
// was never indexed and needs none.
func (ix *UniqueIndex) Delete(tx uint64, val core.Value) {
	if val.IsNull() {
		return
	}
	s := ix.stripe(val)
	e := &indexEntry{val: val, creator: tx, deleted: true}
	s.mu.Lock()
	s.entries.put(val, append([]*indexEntry{e}, s.entries.get(val)...))
	s.mu.Unlock()
	ix.addPending(tx, e)
}

// Lookup returns the primary key mapped from val as seen by a snapshot,
// honouring the reader's own uncommitted entries. NULL, and a value of
// another kind than the column's, find nothing.
func (ix *UniqueIndex) Lookup(snapshotCSN, self uint64, val core.Value) (core.Value, bool) {
	s := ix.stripe(val)
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, e := range s.entries.get(val) {
		visible := e.creator == self || (e.csn != 0 && e.csn <= snapshotCSN)
		if !visible {
			continue
		}
		if e.deleted {
			return core.Value{}, false
		}
		return e.pk, true
	}
	return core.Value{}, false
}

// Commit stamps all of tx's uncommitted entries with csn. Each stamp is
// applied under the entry's stripe lock so concurrent Lookups never see
// a torn CSN. Each stamped value's entry list then takes the cut
// Row.Prune gives a version chain: nothing below the newest entry
// committed at or below horizon is kept, under the same guarantee that
// no reader uses a snapshot below horizon.
func (ix *UniqueIndex) Commit(tx, csn, horizon uint64) {
	for _, e := range ix.takePending(tx) {
		s := ix.stripe(e.val)
		s.mu.Lock()
		e.csn = csn
		chain := s.entries.get(e.val)
		for i, c := range chain {
			if c.csn != 0 && c.csn <= horizon {
				clear(chain[i+1:])
				s.entries.put(e.val, chain[:i+1])
				break
			}
		}
		s.mu.Unlock()
	}
}

// Abort removes all of tx's uncommitted entries.
func (ix *UniqueIndex) Abort(tx uint64) {
	for _, pe := range ix.takePending(tx) {
		s := ix.stripe(pe.val)
		s.mu.Lock()
		chain := s.entries.get(pe.val)
		kept := chain[:0]
		for _, e := range chain {
			if e != pe {
				kept = append(kept, e)
			}
		}
		if len(kept) == 0 {
			s.entries.del(pe.val)
		} else {
			s.entries.put(pe.val, kept)
		}
		s.mu.Unlock()
	}
}
