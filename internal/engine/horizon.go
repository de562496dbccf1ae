package engine

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"sicost/internal/core"
)

// horizon.go is the engine's one snapshot horizon: a CSN below which no
// current or future reader reads. Everything that retires old state
// reads it — the committing writer prunes the version chains and
// unique-index entry lists it wrote (storage.Row.Prune,
// UniqueIndex.Commit) and SSI drops the marks of transactions that
// committed at or below it.
//
// The horizon is the minimum of every CSN somebody may still read at:
// the start of every open transaction, every pinned cut (a checkpoint
// resolving its rows while commits go on, a ScanAsOf in progress)
// and DB.DurableSeq (the async crash audits scan the live instance as
// of the CSN recovery landed on, which is never below what was
// acknowledged durable). It is cached in an atomic and recomputed every
// horizonEvery transaction ends, never per statement. A stale value is
// still a horizon: the visible CSN is read before advance looks at any
// open transaction, and every snapshot taken later starts at or above
// that.

// horizonEvery is how many transaction ends pass between recomputations
// of the horizon. It bounds the staleness a hot row pays in chain
// length; the recomputation itself is one uncontended mutex acquisition
// per slot. Each slot counts its own ends and recomputes every
// horizonEvery/len(slots) of them, so however the ends fall on the
// slots the horizon is recomputed at least every horizonEvery of them.
const horizonEvery = 32

// horizon is the registry and the cached value. The registry is the
// slots' lists of open handles (slot.go): Begin and endTx take their
// own slot's mutex, so they share no lock and write no line with
// another processor.
type horizon struct {
	slots []txSlot
	every uint64 // ends of one slot between recomputations
	_     [cacheLine - unsafe.Sizeof([]txSlot(nil)) - 8]byte

	// mu serializes recomputation and guards pins. Pinning checks the
	// cut against csn under it, so no recomputation can pass a cut
	// between its check and its registration. A recomputation writes
	// this line; every updating commit reads csn.
	mu   sync.Mutex
	pins []uint64
	csn  atomic.Uint64 // the cached horizon; only grows
	_    [cacheLine - unsafe.Sizeof(sync.Mutex{}) - unsafe.Sizeof([]uint64(nil)) - 8]byte
}

// init gives the registry n slots.
func (h *horizon) init(n int) {
	h.slots = make([]txSlot, n)
	h.every = uint64(max(1, horizonEvery/n))
}

// begin takes tx's snapshot and registers it in slot s, atomically with
// respect to advance's visit of the slot.
func (h *horizon) begin(tx *Tx, s *txSlot, visible *atomic.Uint64) {
	tx.slot = s
	s.mu.Lock()
	tx.start = visible.Load()
	tx.snapPrev = s.tail
	if s.tail == nil {
		s.head = tx
	} else {
		s.tail.snapNext = tx
	}
	s.tail = tx
	s.mu.Unlock()
}

// end drops tx's snapshot from the registry and reports whether this
// end is the one that recomputes the horizon.
func (h *horizon) end(tx *Tx) bool {
	s := tx.slot
	s.mu.Lock()
	if tx.snapPrev == nil {
		s.head = tx.snapNext
	} else {
		tx.snapPrev.snapNext = tx.snapNext
	}
	if tx.snapNext == nil {
		s.tail = tx.snapPrev
	} else {
		tx.snapNext.snapPrev = tx.snapPrev
	}
	tx.snapPrev, tx.snapNext = nil, nil
	s.ends++
	due := s.ends%h.every == 0
	s.mu.Unlock()
	return due
}

// pin registers cut as a CSN still being read at, until unpin. It fails
// with core.ErrSnapshotTooOld when the horizon has already passed cut.
func (h *horizon) pin(cut uint64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if cut < h.csn.Load() {
		return core.ErrSnapshotTooOld
	}
	h.pins = append(h.pins, cut)
	return nil
}

// unpin drops one registration of cut.
func (h *horizon) unpin(cut uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, p := range h.pins {
		if p == cut {
			h.pins = append(h.pins[:i], h.pins[i+1:]...)
			return
		}
	}
}

// advance recomputes the horizon: the minimum of ceiling, the pins and
// every open snapshot. The caller read ceiling — DB.DurableSeq, which
// the visible CSN caps — before the call, so before any slot is
// visited: a transaction that registers after its slot's visit took
// its snapshot after that read, at or above the result. A caller that
// finds a recomputation in progress leaves it to that one.
func (h *horizon) advance(ceiling uint64) {
	if !h.mu.TryLock() {
		return
	}
	defer h.mu.Unlock()
	low := ceiling
	for _, p := range h.pins {
		if p < low {
			low = p
		}
	}
	for i := range h.slots {
		s := &h.slots[i]
		s.mu.Lock()
		if s.head != nil && s.head.start < low {
			low = s.head.start
		}
		s.mu.Unlock()
	}
	if low > h.csn.Load() {
		h.csn.Store(low)
	}
}

// HorizonStats is the snapshot horizon as an operator reads it.
type HorizonStats struct {
	// Horizon is the CSN no current or future reader reads below;
	// version chains are pruned behind it.
	Horizon uint64
	// Lag is CommitSeq − Horizon: how many commits' worth of versions
	// the store must keep. A session idle in a transaction, a
	// checkpoint in progress or a stalled log device inflates it.
	Lag uint64
	// Pruned counts versions cut from chains since Open.
	Pruned uint64
}

// HorizonStats snapshots the horizon gauges.
func (db *DB) HorizonStats() HorizonStats {
	hz := db.hz.csn.Load()
	var pruned uint64
	for i := range db.hz.slots {
		pruned += db.hz.slots[i].pruned.Load()
	}
	return HorizonStats{
		Horizon: hz,
		Lag:     db.visibleCSN.Load() - hz,
		Pruned:  pruned,
	}
}
