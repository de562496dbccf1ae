package engine

import (
	"sync"
	"sync/atomic"

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

// horizonStripes is the number of partitions of the open-transaction
// registry (a power of two): Begin and endTx take one stripe's mutex,
// chosen by transaction id, so they share no global lock.
const horizonStripes = 16

// horizonEvery is how many transaction ends pass between recomputations
// of the horizon. It bounds the staleness a hot row pays in chain
// length; the recomputation itself is horizonStripes uncontended mutex
// acquisitions.
const horizonEvery = 32

// snapStripe is one partition of the open-transaction registry: an
// intrusive list of handles in Begin order. A snapshot is taken under
// the stripe's mutex and the visible CSN only grows, so the list is
// sorted by start and its head is the stripe's oldest snapshot.
type snapStripe struct {
	mu         sync.Mutex
	head, tail *Tx
	_          [40]byte // keep neighbouring stripes' mutexes off one cache line
}

// horizon is the registry and the cached value.
type horizon struct {
	csn    atomic.Uint64 // the cached horizon; only grows
	ends   atomic.Uint64 // transaction ends, the recomputation clock
	pruned atomic.Uint64 // versions cut from chains

	// mu serializes recomputation and guards pins. Pinning checks the
	// cut against csn under it, so no recomputation can pass a cut
	// between its check and its registration.
	mu   sync.Mutex
	pins []uint64

	stripes [horizonStripes]snapStripe
}

// begin takes tx's snapshot and registers it, atomically with respect
// to advance's visit of the stripe.
func (h *horizon) begin(tx *Tx, visible *atomic.Uint64) {
	s := &h.stripes[tx.id&(horizonStripes-1)]
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

// end drops tx's snapshot from the registry.
func (h *horizon) end(tx *Tx) {
	s := &h.stripes[tx.id&(horizonStripes-1)]
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
	s.mu.Unlock()
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
// the visible CSN caps — before the call, so before any stripe is
// visited: a transaction that registers after its stripe's visit took
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
	for i := range h.stripes {
		s := &h.stripes[i]
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
	return HorizonStats{
		Horizon: hz,
		Lag:     db.visibleCSN.Load() - hz,
		Pruned:  db.hz.pruned.Load(),
	}
}
