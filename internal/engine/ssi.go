package engine

import (
	"sync"

	"sicost/internal/core"
	"sicost/internal/storage"
)

// ssi.go implements the SerializableSI mode: snapshot isolation extended
// with runtime read-write antidependency tracking in the style of Cahill,
// Röhm and Fekete's Serializable Snapshot Isolation (which PostgreSQL 9.1
// later adopted). It is the engine-level alternative to the paper's
// application-level program modifications and powers the extension
// experiments.
//
// The algorithm is the "essential dangerous structure" approximation:
// every transaction tracks whether it has an incoming and an outgoing
// rw-antidependency with a concurrent transaction. A transaction that
// acquires both is a potential pivot of a dangerous structure and is
// aborted (or, when it can no longer be aborted because it is committing
// or committed, the transaction that would complete the structure is
// aborted instead). This is conservative — false positives abort some
// serializable executions — but admits no non-serializable execution,
// which the checker-based tests assert.

// ssiTxn is the SSI bookkeeping attached to one transaction.
type ssiTxn struct {
	id    uint64
	start uint64

	// All fields below are guarded by ssiState.mu.
	in, out    bool
	dead       bool
	committing bool
	finished   bool
	commitCSN  uint64 // 0 if active or aborted

	deadFlag chan struct{} // closed on doom, for cheap polling
}

// unabortable reports whether this transaction can no longer be chosen
// as the abort victim.
func (t *ssiTxn) unabortable() bool {
	return t.committing || (t.finished && t.commitCSN != 0)
}

// doomed is polled by the transaction's own goroutine without the state
// lock.
func (t *ssiTxn) isDoomed() bool {
	select {
	case <-t.deadFlag:
		return true
	default:
		return false
	}
}

// ssiState is the per-database SSI side structure.
type ssiState struct {
	// hz is the database's snapshot horizon: no active or future
	// transaction starts below it, which is what makes a finished
	// transaction's marks removable.
	hz *horizon

	mu      sync.Mutex
	readers map[storage.LockKey][]*ssiTxn // SIREAD marks
	writers map[storage.LockKey][]*ssiTxn
	sweeps  int
}

func newSSIState(hz *horizon) *ssiState {
	return &ssiState{
		hz:      hz,
		readers: make(map[storage.LockKey][]*ssiTxn),
		writers: make(map[storage.LockKey][]*ssiTxn),
	}
}

// begin attaches tx's SSI record. The set of active transactions is the
// horizon's registry; SSI keeps none of its own.
func (s *ssiState) begin(tx *Tx) {
	tx.ssi = &ssiTxn{id: tx.id, start: tx.start, deadFlag: make(chan struct{})}
}

// concurrent reports whether u overlapped t (t is active). Committing
// transactions are conservatively treated as concurrent.
func concurrent(t, u *ssiTxn) bool {
	if !u.finished {
		return true
	}
	if u.commitCSN == 0 {
		return false // aborted: no dependency survives
	}
	return u.commitCSN > t.start
}

// doom marks victim dead; when victim can no longer abort, fallback dies
// instead. Caller holds s.mu.
func doom(victim, fallback *ssiTxn) {
	if victim.unabortable() {
		victim = fallback
	}
	if victim.unabortable() || victim.dead {
		return
	}
	victim.dead = true
	close(victim.deadFlag)
}

// setRW records an antidependency reader→writer and aborts any pivot it
// creates. Caller holds s.mu.
func setRW(reader, writer *ssiTxn) {
	reader.out = true
	writer.in = true
	if reader.in && reader.out {
		doom(reader, writer)
	}
	if writer.in && writer.out {
		doom(writer, reader)
	}
}

// onRead registers an SIREAD mark for tx on the row and flags
// antidependencies to concurrent writers of that row.
func (s *ssiState) onRead(tx *Tx, table string, key core.Value, _ *storage.Row) error {
	k := storage.LockKey{Table: table, Key: key}
	me := tx.ssi
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readers[k] = addTxn(s.pruneLocked(s.readers, k), me)
	for _, w := range s.writers[k] {
		if w.id != me.id && concurrent(me, w) && concurrentBack(w, me) {
			setRW(me, w)
		}
	}
	if me.dead {
		return core.ErrSerialization
	}
	return nil
}

// onWrite registers tx as a writer of the row and flags antidependencies
// from concurrent readers.
func (s *ssiState) onWrite(tx *Tx, table string, key core.Value) error {
	k := storage.LockKey{Table: table, Key: key}
	me := tx.ssi
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writers[k] = addTxn(s.pruneLocked(s.writers, k), me)
	for _, r := range s.readers[k] {
		if r.id != me.id && concurrent(me, r) && concurrentBack(r, me) {
			setRW(r, me)
		}
	}
	if me.dead {
		return core.ErrSerialization
	}
	return nil
}

// concurrentBack checks overlap from the finished side: u (possibly
// finished) overlapped the active transaction t only if u did not commit
// before t began — that is handled by concurrent(t, u) — and t did not
// begin after u committed. For an active t both reduce to the same CSN
// comparison, so this simply mirrors concurrent for symmetry of intent.
func concurrentBack(t, u *ssiTxn) bool { return concurrent(t, u) }

// precommit transitions tx into the committing state; from here on it
// cannot be chosen as an abort victim. Returns ErrSerialization if tx
// was already doomed.
func (s *ssiState) precommit(tx *Tx) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tx.ssi.dead {
		return core.ErrSerialization
	}
	tx.ssi.committing = true
	return nil
}

// finish records tx's commit CSN.
func (s *ssiState) finish(tx *Tx, csn uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tx.ssi.finished = true
	tx.ssi.committing = false
	tx.ssi.commitCSN = csn
	s.maybeSweepLocked()
}

// abort records that tx aborted.
func (s *ssiState) abort(tx *Tx) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tx.ssi.finished = true
	tx.ssi.committing = false
	tx.ssi.commitCSN = 0
	s.maybeSweepLocked()
}

// removable reports whether a list entry can never matter again: the
// transaction finished and no active (or future) transaction can be
// concurrent with it — it committed at or below the snapshot horizon.
// Caller holds s.mu.
func removable(t *ssiTxn, horizon uint64) bool {
	if !t.finished {
		return false
	}
	if t.commitCSN == 0 {
		return true // aborted
	}
	return t.commitCSN <= horizon
}

// pruneLocked compacts one key's list. Caller holds s.mu.
func (s *ssiState) pruneLocked(m map[storage.LockKey][]*ssiTxn, k storage.LockKey) []*ssiTxn {
	list := m[k]
	horizon := s.hz.csn.Load()
	kept := list[:0]
	for _, t := range list {
		if !removable(t, horizon) {
			kept = append(kept, t)
		}
	}
	if len(kept) == 0 {
		delete(m, k)
		return nil
	}
	m[k] = kept
	return kept
}

// maybeSweepLocked performs a full prune of both maps every few hundred
// transaction completions, bounding memory on long runs. Caller holds
// s.mu.
func (s *ssiState) maybeSweepLocked() {
	s.sweeps++
	if s.sweeps%512 != 0 {
		return
	}
	horizon := s.hz.csn.Load()
	for _, m := range []map[storage.LockKey][]*ssiTxn{s.readers, s.writers} {
		for k, list := range m {
			kept := list[:0]
			for _, t := range list {
				if !removable(t, horizon) {
					kept = append(kept, t)
				}
			}
			if len(kept) == 0 {
				delete(m, k)
			} else {
				m[k] = kept
			}
		}
	}
}

// addTxn appends t if absent.
func addTxn(list []*ssiTxn, t *ssiTxn) []*ssiTxn {
	for _, e := range list {
		if e == t {
			return list
		}
	}
	return append(list, t)
}

// doomed is the cheap per-statement check used by Tx.stmt.
func (t *ssiTxn) doomed() bool { return t.isDoomed() }
