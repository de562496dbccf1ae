// Package storage implements the multi-version storage substrate of the
// sicost engine: versioned tables keyed by primary key, unique secondary
// indexes, and a lock table with FIFO wait queues and deadlock detection.
//
// The design mirrors the parts of PostgreSQL the paper's analysis depends
// on: every update installs a new version (visible to its creator
// immediately, to others only after commit), row-level exclusive locks
// serialize writers, and readers never block. Concurrency control policy
// (snapshot isolation, 2PL, SSI) lives above, in internal/engine.
//
// Old versions are pruned, not kept for ever. The engine maintains one
// snapshot horizon — a CSN no current or future reader reads below — and
// the committing writer cuts each chain it wrote behind that horizon
// (Row.Prune; UniqueIndex.Commit takes the same cut), which is
// vacuum-on-write in the manner of PostgreSQL's HOT pruning. A chain
// therefore keeps the newest version committed at or below the horizon
// and everything newer; a reader at or above the horizon never notices,
// because it stops at that version or before it.
package storage

import (
	"sync"
	"sync/atomic"

	"sicost/internal/core"
)

// Version is one row image in a version chain. Prev points at the older
// version; chains are newest-first. The commit sequence number (CSN) is
// zero while the creating transaction is in flight and is stamped
// atomically at commit, so readers can traverse chains without locks.
type Version struct {
	// Rec is the row image; nil marks a deletion tombstone.
	Rec core.Record
	// Creator is the transaction id that produced this version.
	Creator uint64
	// Prev is the next older version. It is written when the version is
	// linked (Install) and cleared when the chain is cut below the
	// version (Row.Prune); chain walkers load it atomically.
	Prev atomic.Pointer[Version]

	csn atomic.Uint64
}

// inlineCols is the widest row image a version carries in its own
// allocation; every SmallBank table is this wide or narrower.
const inlineCols = 2

// inlineVersion is a version with room for its row image behind it.
type inlineVersion struct {
	Version
	cols [inlineCols]core.Value
}

// NewVersion returns an uncommitted version by creator carrying a copy
// of image (nil: a deletion tombstone). An image of at most inlineCols
// columns is copied into the version's own allocation, so a version and
// its image are one object; a wider one is cloned beside it. image does
// not escape.
func NewVersion(image core.Record, creator uint64) *Version {
	if !inlines(image) {
		return &Version{Rec: image.Clone(), Creator: creator}
	}
	iv := new(inlineVersion)
	iv.init(image, creator)
	return &iv.Version
}

// inlines reports whether image fits in an inlineVersion.
func inlines(image core.Record) bool { return image != nil && len(image) <= inlineCols }

// init makes iv an uncommitted version by creator carrying a copy of
// image, which inlines.
func (iv *inlineVersion) init(image core.Record, creator uint64) {
	iv.Creator = creator
	n := copy(iv.cols[:], image)
	iv.Rec = iv.cols[:n:n]
}

// CSN returns the commit sequence number, or 0 if uncommitted.
func (v *Version) CSN() uint64 { return v.csn.Load() }

// MarkCommitted stamps the version with its creator's commit sequence
// number, making it visible to snapshots taken at or after csn.
func (v *Version) MarkCommitted(csn uint64) { v.csn.Store(csn) }

// VisibleTo reports whether this single version is visible to a reader
// with the given snapshot CSN and transaction id (a transaction always
// sees its own uncommitted writes).
func (v *Version) VisibleTo(snapshotCSN, self uint64) bool {
	if v.Creator == self {
		return true
	}
	c := v.CSN()
	return c != 0 && c <= snapshotCSN
}

// Row is the per-primary-key anchor of a version chain plus the metadata
// the platform variants need (the commercial platform records the commit
// CSN of the last SELECT FOR UPDATE so later concurrent writers conflict
// with it).
type Row struct {
	mu   sync.Mutex
	head atomic.Pointer[Version]

	// lastSFUCommit is the commit CSN of the most recent transaction that
	// select-for-updated this row on the commercial platform. Writers
	// whose snapshot predates it fail with a serialization error, which
	// is the paper's "treated for concurrency control like an Update".
	lastSFUCommit atomic.Uint64

	// owner is the row's write-lock word (LockTable.AcquireRowUntil): 0
	// when nobody holds the lock thin, a transaction id while that
	// transaction holds it and nobody waits, rowContended while the lock
	// table's entry for the row says who holds it and who queues.
	owner atomic.Uint64
}

// Head returns the newest version (committed or not), or nil for a row
// anchor with no versions yet.
func (r *Row) Head() *Version { return r.head.Load() }

// Visible returns the newest version visible to the given snapshot and
// transaction id, or nil if none is. A nil result or a tombstone
// (Rec == nil) both mean "no row" to the caller.
func (r *Row) Visible(snapshotCSN, self uint64) *Version {
	for v := r.Head(); v != nil; v = v.Prev.Load() {
		if v.VisibleTo(snapshotCSN, self) {
			return v
		}
	}
	return nil
}

// NewestCommitted returns the newest committed version, or nil.
func (r *Row) NewestCommitted() *Version {
	for v := r.Head(); v != nil; v = v.Prev.Load() {
		if v.CSN() != 0 {
			return v
		}
	}
	return nil
}

// CommittedAsOf returns the newest committed version with CSN ≤ cut, or
// nil: the row as a reader that is no transaction sees it at cut (a
// checkpoint, a scan of the state some CSN published). Unlike
// Visible it honours nobody's uncommitted writes.
func (r *Row) CommittedAsOf(cut uint64) *Version {
	for v := r.Head(); v != nil; v = v.Prev.Load() {
		if c := v.CSN(); c != 0 && c <= cut {
			return v
		}
	}
	return nil
}

// Install links a new uncommitted version at the head of the chain. The
// caller must hold the row's exclusive lock in the lock table, which
// guarantees at most one uncommitted version per row.
func (r *Row) Install(v *Version) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v.Prev.Store(r.head.Load())
	r.head.Store(v)
}

// RemoveUncommitted unlinks the head version if it is an uncommitted
// version created by tx; it is the abort path. It reports whether a
// version was removed.
func (r *Row) RemoveUncommitted(tx uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.head.Load()
	if h == nil || h.Creator != tx || h.CSN() != 0 {
		return false
	}
	r.head.Store(h.Prev.Load())
	return true
}

// UpdateOwn replaces the record of the head version when it is an
// uncommitted version created by tx (a transaction updating the same row
// twice); it reports whether the replacement happened.
func (r *Row) UpdateOwn(tx uint64, rec core.Record) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.head.Load()
	if h == nil || h.Creator != tx || h.CSN() != 0 {
		return false
	}
	h.Rec = rec
	return true
}

// NoteSFUCommit records that a commercial-platform select-for-update of
// this row committed at csn.
func (r *Row) NoteSFUCommit(csn uint64) {
	// Monotonic max; concurrent commits race benignly because CSNs only
	// grow and writers compare against their (older) snapshot.
	for {
		cur := r.lastSFUCommit.Load()
		if csn <= cur || r.lastSFUCommit.CompareAndSwap(cur, csn) {
			return
		}
	}
}

// LastSFUCommit returns the commit CSN of the last select-for-update on
// this row (commercial platform), or 0.
func (r *Row) LastSFUCommit() uint64 { return r.lastSFUCommit.Load() }

// Prune cuts the chain below the newest committed version with
// CSN ≤ horizon and returns the number of versions dropped. The caller
// holds the row's exclusive lock (the committing writer, between
// publishing its CSN and releasing its locks) and guarantees that no
// current or future reader uses a snapshot below horizon: such a reader
// stops at the cut version or above it, so it never follows the pointer
// being cleared, and readers need no lock.
func (r *Row) Prune(horizon uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	keep := r.CommittedAsOf(horizon)
	if keep == nil {
		return 0
	}
	n := 0
	for d := keep.Prev.Load(); d != nil; d = d.Prev.Load() {
		n++
	}
	if n > 0 {
		keep.Prev.Store(nil)
	}
	return n
}

// ChainLen returns the number of versions in the chain; diagnostics only.
func (r *Row) ChainLen() int {
	n := 0
	for v := r.Head(); v != nil; v = v.Prev.Load() {
		n++
	}
	return n
}
