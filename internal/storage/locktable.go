package storage

import (
	"sync"
	"sync/atomic"
	"time"

	"sicost/internal/core"
	"sicost/internal/metrics"
	"sicost/internal/trace"
)

// LockMode is the strength of a row lock.
type LockMode uint8

// Lock modes: shared (readers under 2PL) and exclusive (writers under
// every mode; select-for-update).
const (
	Shared LockMode = iota
	Exclusive
)

// String names the mode.
func (m LockMode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// LockKey identifies one lockable resource: a row of a table.
type LockKey struct {
	Table string
	Key   core.Value
}

// waiter is one queued lock request.
type waiter struct {
	tx    uint64
	mode  LockMode
	ready chan error // buffered(1); receives nil on grant
}

// lock is the state of one locked resource.
type lock struct {
	holders map[uint64]LockMode
	queue   []*waiter
	// row is the anchor whose owner word this entry has marked
	// rowContended (nil for a key locked without its row); the word is
	// cleared when the entry is freed.
	row *Row
}

// compatibleWithHolders reports whether a request by tx at mode can be
// granted given current holders (ignoring any lock tx itself holds).
func (l *lock) compatibleWithHolders(tx uint64, mode LockMode) bool {
	for h, hm := range l.holders {
		if h == tx {
			continue
		}
		if mode == Exclusive || hm == Exclusive {
			return false
		}
	}
	return true
}

// WaitHooks observe the lock manager's blocking points. OnWait fires when
// a request is queued and its transaction is about to block; OnWake fires
// when a queued request is resolved — granted (err == nil) or ejected
// (err != nil, e.g. the transaction was aborted while waiting). OnWake is
// invoked synchronously from the goroutine that resolves the wait (the
// releaser), before that goroutine's own operation returns, which is what
// lets a deterministic scheduler (internal/detsim) attribute every wakeup
// to the exact step that caused it. Hooks run with lock-table stripe
// mutexes held (OnWait with every stripe held, OnWake with the key's
// stripe held) and must not call back into the LockTable.
type WaitHooks struct {
	OnWait func(tx uint64, key LockKey)
	OnWake func(tx uint64, key LockKey, err error)
}

// DefaultLockStripes is the stripe count of NewLockTable: enough that
// independent transactions on a many-core machine rarely collide on a
// stripe mutex, small enough that the all-stripes deadlock-check path
// stays cheap.
const DefaultLockStripes = 64

// lockStripe is one hash partition of the lock table: its own mutex and
// lock map, so lock traffic on rows that hash to different stripes
// never serializes.
type lockStripe struct {
	mu    sync.Mutex
	locks map[LockKey]*lock
}

// txShard holds per-transaction bookkeeping, sharded by transaction id
// (a different hash space than the key stripes): which keys each
// transaction holds and where it has queued waiters. ReleaseAll uses it
// to visit exactly the stripes a transaction touched instead of
// sweeping the whole table.
type txShard struct {
	mu     sync.Mutex
	held   map[uint64][]LockKey
	queued map[uint64][]LockKey
	// n is len(held) + len(queued), stored under mu after every change:
	// ReleaseAll reads it first and, where no transaction of the shard
	// went through the table (every lock of the SI modes' uncontended
	// writers is a row's owner word), leaves without taking mu. Nothing
	// then writes the shard's line, so transactions on two processors
	// whose ids share the shard only read it.
	n atomic.Int32
	_ [36]byte // a shard is one 64-byte line
}

// recount stores the shard's entry count; the caller holds mu.
func (sh *txShard) recount() { sh.n.Store(int32(len(sh.held) + len(sh.queued))) }

// LockTable is the engine's lock manager: row-granularity S/X locks with
// FIFO wait queues, lock upgrade, and waits-for deadlock detection that
// aborts the requester closing a cycle (returning core.ErrDeadlock).
//
// The table is hash-sharded into stripes (PostgreSQL's lock-manager
// partitioning). Grants that do not block touch exactly one stripe plus
// the requester's txShard. A request that must wait takes the slow
// path: it locks every stripe in canonical (index) order — making the
// waits-for edge snapshot globally consistent and the lock order
// cycle-free — re-checks grantability, runs deadlock detection over the
// snapshot, and only then queues. Release and wake-up are per-stripe
// again.
//
// An exclusive lock on a row whose anchor the caller holds need not enter
// the table at all (AcquireRowUntil): uncontended, it is the anchor's
// owner word, as PostgreSQL keeps a row's write lock in the tuple header
// and enters the shared lock manager only to wait. The first conflicting
// request inflates it: under the key's stripe mutex it marks the word
// rowContended and materialises the entry with the thin owner as its
// holder, and from there everything above applies. Only a holder of the
// stripe mutex sets or clears rowContended, and an entry with a row
// exists exactly while that row's word is contended. A database locks a
// key always through its row or never (one concurrency-control mode per
// instance); the two must not be mixed on one key.
//
// Mutex order: stripe mutexes in ascending index, then txShard
// mutexes. Code holding a txShard mutex never acquires a stripe mutex.
type LockTable struct {
	stripes []*lockStripe
	mask    uint64
	txs     []*txShard
	txMask  uint64
	hooks   WaitHooks

	// lockPool recycles lock entries (with their holder maps) across
	// the acquire/release churn of short transactions.
	lockPool sync.Pool

	// Per-stripe contention counters (shard = stripe index): fastPath
	// counts acquires granted without blocking, waits counts acquires
	// that queued and deadlocks counts requests denied with ErrDeadlock.
	fastPath  *metrics.ContentionCounter
	waits     *metrics.ContentionCounter
	deadlocks *metrics.ContentionCounter
	// Thin row locks (shard = transaction id): thinGrants counts owner
	// words taken, thinReleases those given back or moved into the table
	// by an inflater. Their difference is the thin locks held now.
	thinGrants   *metrics.ContentionCounter
	thinReleases *metrics.ContentionCounter

	// tracer records EvLockWait/EvLockWake lifecycle events; nil
	// disables. Events are emitted only on the blocking slow path, never
	// on the fast path, so the unblocked acquire stays trace-free.
	tracer *trace.Recorder

	// waitHist holds the duration of every blocked acquire: the one
	// record of a wait (LockStats.WaitTime is its sum, the engine's
	// TxnMetrics().LockWait a snapshot of it). Every field of it is
	// written by a wait, so it starts past a line of padding: a wait does
	// not take the line of the fields above, which every acquire reads.
	_        [64]byte
	waitHist metrics.Histogram
}

// NewLockTable creates an empty lock manager with DefaultLockStripes
// stripes.
func NewLockTable() *LockTable { return NewLockTableStriped(DefaultLockStripes) }

// NewLockTableStriped creates a lock manager with at least n stripes
// (rounded up to a power of two, minimum 1). n = 1 degenerates to the
// classic single-mutex lock table; the property tests exploit this to
// check the sharded and unsharded code paths observably agree.
func NewLockTableStriped(n int) *LockTable {
	size := 1
	for size < n {
		size <<= 1
	}
	lt := &LockTable{
		stripes:   make([]*lockStripe, size),
		mask:      uint64(size - 1),
		txs:       make([]*txShard, size),
		txMask:    uint64(size - 1),
		fastPath:  metrics.NewContentionCounter(size),
		waits:     metrics.NewContentionCounter(size),
		deadlocks: metrics.NewContentionCounter(size),

		thinGrants:   metrics.NewContentionCounter(size),
		thinReleases: metrics.NewContentionCounter(size),
	}
	lt.lockPool.New = func() any {
		return &lock{holders: make(map[uint64]LockMode, 2)}
	}
	for i := range lt.stripes {
		lt.stripes[i] = &lockStripe{locks: make(map[LockKey]*lock)}
		lt.txs[i] = &txShard{
			held:   make(map[uint64][]LockKey),
			queued: make(map[uint64][]LockKey),
		}
	}
	return lt
}

// Stripes returns the stripe count (a power of two).
func (lt *LockTable) Stripes() int { return len(lt.stripes) }

// stripeIndex maps a key to its stripe.
func (lt *LockTable) stripeIndex(key LockKey) int {
	return int(hashLockKey(key) & lt.mask)
}

// txShardOf maps a transaction id to its bookkeeping shard. Transaction
// ids are sequential, so the low bits alone spread them evenly.
func (lt *LockTable) txShardOf(tx uint64) *txShard {
	return lt.txs[tx&lt.txMask]
}

// newLock takes a recycled (or fresh) empty lock entry.
func (lt *LockTable) newLock() *lock { return lt.lockPool.Get().(*lock) }

// freeLock recycles an entry that was just removed from a stripe map,
// handing its row's lock back to the owner word. Caller holds the stripe
// mutex and guarantees holders and queue are empty and no concurrent
// reference exists (entries are only reachable through stripe maps,
// under the stripe mutex).
func (lt *LockTable) freeLock(l *lock) {
	if l.row != nil {
		l.row.owner.Store(0)
		l.row = nil
	}
	l.queue = nil
	lt.lockPool.Put(l)
}

// addHeld records that tx holds key.
func (lt *LockTable) addHeld(tx uint64, key LockKey) {
	sh := lt.txShardOf(tx)
	sh.mu.Lock()
	sh.held[tx] = append(sh.held[tx], key)
	sh.recount()
	sh.mu.Unlock()
}

// removeHeld drops one record of tx holding key.
func (lt *LockTable) removeHeld(tx uint64, key LockKey) {
	sh := lt.txShardOf(tx)
	sh.mu.Lock()
	keys := sh.held[tx]
	for i, k := range keys {
		if k == key {
			sh.held[tx] = append(keys[:i], keys[i+1:]...)
			break
		}
	}
	if len(sh.held[tx]) == 0 {
		delete(sh.held, tx)
	}
	sh.recount()
	sh.mu.Unlock()
}

// addQueued records that tx has a queued waiter on key.
func (lt *LockTable) addQueued(tx uint64, key LockKey) {
	sh := lt.txShardOf(tx)
	sh.mu.Lock()
	sh.queued[tx] = append(sh.queued[tx], key)
	sh.recount()
	sh.mu.Unlock()
}

// removeQueued drops one record of tx waiting on key.
func (lt *LockTable) removeQueued(tx uint64, key LockKey) {
	sh := lt.txShardOf(tx)
	sh.mu.Lock()
	keys := sh.queued[tx]
	for i, k := range keys {
		if k == key {
			sh.queued[tx] = append(keys[:i], keys[i+1:]...)
			break
		}
	}
	if len(sh.queued[tx]) == 0 {
		delete(sh.queued, tx)
	}
	sh.recount()
	sh.mu.Unlock()
}

// lockAll acquires every stripe mutex in canonical (ascending index)
// order; unlockAll releases them. All cross-stripe operations use this
// order, so stripe mutexes can never deadlock against each other.
func (lt *LockTable) lockAll() {
	for _, s := range lt.stripes {
		s.mu.Lock()
	}
}

func (lt *LockTable) unlockAll() {
	for i := len(lt.stripes) - 1; i >= 0; i-- {
		lt.stripes[i].mu.Unlock()
	}
}

// SetHooks installs wait/wake observers (zero value disables). Not safe
// to call while transactions are in flight.
func (lt *LockTable) SetHooks(h WaitHooks) {
	lt.lockAll()
	lt.hooks = h
	lt.unlockAll()
}

// SetTracer installs the lifecycle-event recorder (nil disables). Not
// safe to call while transactions are in flight.
func (lt *LockTable) SetTracer(r *trace.Recorder) {
	lt.lockAll()
	lt.tracer = r
	lt.unlockAll()
}

// notifyWait invokes the OnWait hook. Caller holds the key's stripe
// mutex (the slow path holds every stripe).
func (lt *LockTable) notifyWait(tx uint64, key LockKey) {
	if lt.hooks.OnWait != nil {
		lt.hooks.OnWait(tx, key)
	}
}

// notifyWake invokes the OnWake hook. Caller holds the key's stripe
// mutex.
func (lt *LockTable) notifyWake(tx uint64, key LockKey, err error) {
	if lt.hooks.OnWake != nil {
		lt.hooks.OnWake(tx, key, err)
	}
}

// tryGrantLocked attempts to grant (tx, key, mode) without waiting:
// re-acquisition of a held lock, sole-holder upgrade, or a fresh grant
// when the queue is empty and every holder is compatible. It mutates
// state only when it grants. Caller holds s.mu.
func (lt *LockTable) tryGrantLocked(s *lockStripe, tx uint64, key LockKey, mode LockMode) bool {
	l := s.locks[key]
	if l == nil {
		l = lt.newLock()
		l.holders[tx] = mode
		s.locks[key] = l
		lt.addHeld(tx, key)
		return true
	}
	if hm, holds := l.holders[tx]; holds {
		if hm == Exclusive || hm == mode {
			return true // already strong enough
		}
		// Shared → Exclusive upgrade: jumps the queue when tx is the
		// sole holder, which is how real lock managers avoid trivial
		// upgrade deadlocks.
		if l.compatibleWithHolders(tx, Exclusive) {
			l.holders[tx] = Exclusive
			return true
		}
		return false
	}
	if len(l.queue) == 0 && l.compatibleWithHolders(tx, mode) {
		l.holders[tx] = mode
		lt.addHeld(tx, key)
		return true
	}
	return false
}

// Acquire obtains the lock on key at the given mode for tx, blocking
// while incompatible holders or earlier waiters exist. It returns
// core.ErrDeadlock when waiting would close a cycle in the waits-for
// graph. Re-acquiring a held lock is a no-op; Shared→Exclusive upgrades
// are honoured (jumping the queue when tx is the sole holder).
func (lt *LockTable) Acquire(tx uint64, key LockKey, mode LockMode) error {
	return lt.AcquireTimeout(tx, key, mode, 0)
}

// AcquireTimeout is Acquire with a lock-wait deadline: a request still
// queued after timeout is withdrawn and fails with core.ErrLockTimeout
// (PostgreSQL's lock_timeout discipline — the statement's transaction
// aborts and the client retries). timeout <= 0 waits forever.
func (lt *LockTable) AcquireTimeout(tx uint64, key LockKey, mode LockMode, timeout time.Duration) error {
	return lt.AcquireUntil(tx, key, mode, timeout, time.Time{})
}

// AcquireUntil is AcquireTimeout generalized with an absolute
// transaction deadline: the wait is bounded by whichever of timeout
// (relative, the lock_timeout discipline) and deadline (absolute, the
// transaction's overall budget) bites first. When the deadline is the
// binding bound its expiry fails with core.ErrTxDeadline — not
// retriable, the transaction's time is spent — while a plain lock
// timeout keeps failing with the retriable core.ErrLockTimeout. A zero
// deadline means no deadline; an already-expired deadline fails without
// touching the queue.
func (lt *LockTable) AcquireUntil(tx uint64, key LockKey, mode LockMode, timeout time.Duration, deadline time.Time) error {
	wait, waitErr, err := waitBound(timeout, deadline)
	if err != nil {
		return err
	}
	idx := lt.stripeIndex(key)
	s := lt.stripes[idx]
	s.mu.Lock()
	granted := lt.tryGrantLocked(s, tx, key, mode)
	s.mu.Unlock()
	if granted {
		lt.fastPath.Inc(idx)
		return nil
	}
	_, err = lt.acquireSlow(tx, key, mode, nil, idx, wait, waitErr)
	return err
}

// waitBound resolves a request's two bounds into the one a wait runs
// under and the error its expiry fails with; err is set when the
// deadline has already passed.
func waitBound(timeout time.Duration, deadline time.Time) (wait time.Duration, waitErr, err error) {
	if deadline.IsZero() {
		return timeout, core.ErrLockTimeout, nil
	}
	rem := time.Until(deadline)
	if rem <= 0 {
		return 0, nil, core.ErrTxDeadline
	}
	if timeout <= 0 || rem < timeout {
		return rem, core.ErrTxDeadline, nil
	}
	return timeout, core.ErrLockTimeout, nil
}

// rowContended is the owner word of a row whose lock lives in the table.
// Transaction ids count up from 1 and never reach it.
const rowContended = 1 << 63

// AcquireRowUntil is AcquireUntil at Exclusive for a caller that holds
// key's row anchor. Uncontended, the lock is one compare-and-swap of the
// anchor's owner word and the table is not entered: thin reports such a
// grant, which the caller must remember and hand back through ReleaseTx.
// A request that finds the word taken goes through the table, first
// moving the thin owner's hold into it, and queues, deadlock-checks,
// times out and is traced exactly like AcquireUntil's. The deadline is
// read only there: a thin grant takes no time to expire in.
func (lt *LockTable) AcquireRowUntil(tx uint64, key LockKey, row *Row, timeout time.Duration, deadline time.Time) (thin bool, err error) {
	switch row.owner.Load() {
	case 0:
		if row.owner.CompareAndSwap(0, tx) {
			lt.thinGrants.Inc(int(tx))
			return true, nil
		}
	case tx:
		lt.fastPath.Inc(int(tx))
		return false, nil
	}
	wait, waitErr, err := waitBound(timeout, deadline)
	if err != nil {
		return false, err
	}
	idx := lt.stripeIndex(key)
	s := lt.stripes[idx]
	s.mu.Lock()
	granted, thin := lt.tryGrantRowLocked(s, tx, key, row)
	s.mu.Unlock()
	if granted {
		return thin, nil
	}
	return lt.acquireSlow(tx, key, Exclusive, row, idx, wait, waitErr)
}

// tryGrantRowLocked is tryGrantLocked for an exclusive request that
// names its row: it settles the owner word first. A free word is taken
// thin; a word another transaction holds thin is inflated — marked
// rowContended, with the entry materialised and that transaction its
// holder — and the request then stands before the table like any other.
// Caller holds s.mu, under which a word moves only between 0 and a thin
// owner: whoever reads rowContended here finds the entry, and it stays.
func (lt *LockTable) tryGrantRowLocked(s *lockStripe, tx uint64, key LockKey, row *Row) (granted, thin bool) {
	for {
		owner := row.owner.Load()
		switch owner {
		case rowContended:
			if lt.tryGrantLocked(s, tx, key, Exclusive) {
				lt.fastPath.Inc(int(tx))
				return true, false
			}
			return false, false
		case 0:
			if row.owner.CompareAndSwap(0, tx) {
				lt.thinGrants.Inc(int(tx))
				return true, true
			}
		default:
			// Another transaction's: re-entry never gets here (only tx
			// writes tx into the word, and AcquireRowUntil saw it did
			// not). The owner gives the lock up with a compare-and-swap back to
			// 0 and, when that fails, with ReleaseAll, which reads
			// held[owner] before it comes for this stripe's mutex: the key
			// must be in there before the word can make that swap fail.
			lt.addHeld(owner, key)
			if row.owner.CompareAndSwap(owner, rowContended) {
				l := lt.newLock()
				l.row = row
				l.holders[owner] = Exclusive
				s.locks[key] = l
				lt.thinReleases.Inc(int(owner))
				return false, false
			}
			lt.removeHeld(owner, key) // released meanwhile
		}
	}
}

// acquireSlow is the blocking path: with every stripe locked in
// canonical order it re-checks grantability (the state may have moved
// between the fast path and here), snapshots the global waits-for
// relation for deadlock detection, and queues the request. The wait
// itself happens with no stripe mutex held. A non-nil row makes it
// AcquireRowUntil's slow path (thin as there). timeoutErr is the verdict a
// timed-out wait fails with (ErrLockTimeout for the lock_timeout bound,
// ErrTxDeadline when the transaction deadline was the binding bound).
func (lt *LockTable) acquireSlow(tx uint64, key LockKey, mode LockMode, row *Row, idx int, timeout time.Duration, timeoutErr error) (thin bool, err error) {
	s := lt.stripes[idx]
	lt.lockAll()
	if row != nil {
		if granted, thin := lt.tryGrantRowLocked(s, tx, key, row); granted {
			lt.unlockAll()
			return thin, nil
		}
	} else if lt.tryGrantLocked(s, tx, key, mode) {
		lt.unlockAll()
		lt.fastPath.Inc(idx)
		return false, nil
	}
	l := s.locks[key] // non-nil: either call above grants when absent
	if lt.wouldDeadlock(tx, l) {
		lt.unlockAll()
		lt.deadlocks.Inc(idx)
		return false, core.ErrDeadlock
	}
	_, upgrade := l.holders[tx]
	w := &waiter{tx: tx, mode: mode, ready: make(chan error, 1)}
	if upgrade {
		// Upgrades wait only for the other shared holders to drain and
		// go to the front of the queue.
		w.mode = Exclusive
		l.queue = append([]*waiter{w}, l.queue...)
	} else {
		l.queue = append(l.queue, w)
	}
	lt.addQueued(tx, key)
	lt.notifyWait(tx, key)
	depth := len(l.queue) - 1 // queue position: waiters ahead of this one
	lt.unlockAll()
	lt.waits.Inc(idx)
	// Trace and histogram work happens only here, on the already-blocked
	// path — the fast path above stays free of both.
	if lt.tracer.Enabled() {
		lt.tracer.Emit(trace.Event{
			Kind: trace.EvLockWait, Tx: tx,
			Table: key.Table, Key: key.Key, Depth: depth,
		})
	}
	start := time.Now()
	if timeout <= 0 {
		err = <-w.ready
	} else {
		timer := time.NewTimer(timeout)
		select {
		case err = <-w.ready:
			timer.Stop()
		case <-timer.C:
			err = lt.withdraw(s, tx, key, w, timeoutErr)
		}
	}
	elapsed := time.Since(start)
	lt.waitHist.Record(elapsed)
	if lt.tracer.Enabled() {
		lt.tracer.Emit(trace.Event{
			Kind: trace.EvLockWake, Tx: tx,
			Table: key.Table, Key: key.Key,
			WaitNS: elapsed.Nanoseconds(),
			Reason: uint8(core.ClassifyAbort(err)),
		})
	}
	return false, err
}

// withdraw removes a timed-out waiter from its queue. The race with a
// concurrent grant or ejection is resolved under the stripe mutex: a
// resolver sends on w.ready (buffered) before releasing the stripe, so
// if w is no longer queued the verdict is already in the channel and
// wins — a granted lock is returned, not leaked.
func (lt *LockTable) withdraw(s *lockStripe, tx uint64, key LockKey, w *waiter, timeoutErr error) error {
	s.mu.Lock()
	if l := s.locks[key]; l != nil {
		for i, q := range l.queue {
			if q != w {
				continue
			}
			l.queue = append(l.queue[:i], l.queue[i+1:]...)
			lt.notifyWake(tx, key, timeoutErr)
			// Removing a waiter (it may have been at the head, holding
			// compatible successors back) can unblock the queue.
			lt.grantLocked(s, key, l)
			s.mu.Unlock()
			lt.removeQueued(tx, key)
			return timeoutErr
		}
	}
	s.mu.Unlock()
	// Already granted or ejected; the resolver's send precedes our
	// failed queue scan, so this receive cannot block.
	return <-w.ready
}

// wouldDeadlock reports whether tx blocking on lock l closes a cycle in
// the waits-for graph. Called with every stripe mutex held, so the edge
// snapshot is globally consistent. The requester waits for every
// incompatible holder and every queued waiter of l; transitively, a
// blocked transaction waits for the holders/queue of the lock it is
// queued on.
func (lt *LockTable) wouldDeadlock(tx uint64, l *lock) bool {
	// Build the blocked-on relation lazily over current lock states.
	visited := make(map[uint64]bool)
	var reaches func(from uint64) bool // true if `from` (transitively) waits for tx
	reaches = func(from uint64) bool {
		if from == tx {
			return true
		}
		if visited[from] {
			return false
		}
		visited[from] = true
		for _, s := range lt.stripes {
			for _, lk := range s.locks {
				for _, w := range lk.queue {
					if w.tx != from {
						continue
					}
					for h := range lk.holders {
						if h != from && reaches(h) {
							return true
						}
					}
					for _, w2 := range lk.queue {
						if w2.tx != from && reaches(w2.tx) {
							return true
						}
					}
				}
			}
		}
		return false
	}
	for h := range l.holders {
		if h != tx && reaches(h) {
			return true
		}
	}
	for _, w := range l.queue {
		if w.tx != tx && reaches(w.tx) {
			return true
		}
	}
	return false
}

// Release drops tx's lock on key (if held) and grants to waiters.
func (lt *LockTable) Release(tx uint64, key LockKey) {
	s := lt.stripes[lt.stripeIndex(key)]
	s.mu.Lock()
	released := lt.releaseLocked(s, tx, key)
	s.mu.Unlock()
	if released {
		lt.removeHeld(tx, key)
	}
}

// ReleaseTx is ReleaseAll for a transaction that took row locks thin:
// each of thin goes back with a compare-and-swap of its owner word to 0.
// Where that fails a waiter has inflated the lock, the table holds it in
// tx's name, and ReleaseAll — which takes the key's stripe mutex, behind
// the inflater — drops it and wakes the waiter.
func (lt *LockTable) ReleaseTx(tx uint64, thin []*Row) {
	freed := 0
	for _, r := range thin {
		if r.owner.CompareAndSwap(tx, 0) {
			freed++
		}
	}
	if freed > 0 {
		lt.thinReleases.Add(int(tx), uint64(freed))
	}
	lt.ReleaseAll(tx)
}

// ReleaseAll drops every lock tx holds and removes tx from any wait
// queues (a belt-and-braces cleanup for aborted transactions). The
// txShard bookkeeping names exactly the keys involved, so only the
// stripes tx touched are visited. The loop absorbs the one race this
// has: a concurrent releaser may grant tx's queued waiter between the
// snapshot and the ejection, turning a queued entry into a held one —
// the next pass releases it. Each pass strictly shrinks tx's footprint
// (tx issues no new acquires while dying), so the loop terminates. A
// shard that holds no entry for any transaction is not locked at all.
func (lt *LockTable) ReleaseAll(tx uint64) {
	sh := lt.txShardOf(tx)
	for sh.n.Load() > 0 {
		sh.mu.Lock()
		held := sh.held[tx]
		queued := sh.queued[tx]
		delete(sh.held, tx)
		delete(sh.queued, tx)
		sh.recount()
		sh.mu.Unlock()
		if len(held) == 0 && len(queued) == 0 {
			return
		}
		// Eject queued requests first (e.g. a racing Acquire that lost
		// to an abort), so a release below can never re-grant to the
		// dying transaction's own queued upgrade.
		for _, key := range queued {
			s := lt.stripes[lt.stripeIndex(key)]
			s.mu.Lock()
			if l := s.locks[key]; l != nil {
				for i, w := range l.queue {
					if w.tx != tx {
						continue
					}
					l.queue = append(l.queue[:i], l.queue[i+1:]...)
					lt.notifyWake(tx, key, core.ErrDeadlock)
					w.ready <- core.ErrDeadlock
					lt.grantLocked(s, key, l)
					break
				}
			}
			s.mu.Unlock()
		}
		for _, key := range held {
			s := lt.stripes[lt.stripeIndex(key)]
			s.mu.Lock()
			lt.releaseLocked(s, tx, key)
			s.mu.Unlock()
		}
	}
}

// releaseLocked drops tx's hold on key and promotes waiters, reporting
// whether tx actually held it. Caller holds s.mu.
func (lt *LockTable) releaseLocked(s *lockStripe, tx uint64, key LockKey) bool {
	l := s.locks[key]
	if l == nil {
		return false
	}
	if _, held := l.holders[tx]; !held {
		return false
	}
	delete(l.holders, tx)
	lt.grantLocked(s, key, l)
	return true
}

// grantLocked promotes as many queued waiters as compatibility allows:
// the head waiter, then (if it was shared) consecutive shared waiters.
// Caller holds s.mu.
func (lt *LockTable) grantLocked(s *lockStripe, key LockKey, l *lock) {
	for len(l.queue) > 0 {
		w := l.queue[0]
		if !l.compatibleWithHolders(w.tx, w.mode) {
			break
		}
		l.queue = l.queue[1:]
		lt.removeQueued(w.tx, key)
		if prev, holds := l.holders[w.tx]; holds {
			// Upgrade grant: strengthen in place (key already in held).
			if w.mode == Exclusive || prev == Exclusive {
				l.holders[w.tx] = Exclusive
			}
		} else {
			l.holders[w.tx] = w.mode
			lt.addHeld(w.tx, key)
		}
		lt.notifyWake(w.tx, key, nil)
		w.ready <- nil
		if w.mode == Exclusive {
			break
		}
	}
	if len(l.holders) == 0 && len(l.queue) == 0 {
		delete(s.locks, key)
		lt.freeLock(l)
	}
}

// Holds reports whether tx currently holds key at least at mode.
func (lt *LockTable) Holds(tx uint64, key LockKey, mode LockMode) bool {
	s := lt.stripes[lt.stripeIndex(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.locks[key]
	if l == nil {
		return false
	}
	hm, ok := l.holders[tx]
	return ok && (hm == Exclusive || hm == mode)
}

// HeldKeys returns the keys tx holds; diagnostics and tests.
func (lt *LockTable) HeldKeys(tx uint64) []LockKey {
	sh := lt.txShardOf(tx)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]LockKey, len(sh.held[tx]))
	copy(out, sh.held[tx])
	return out
}

// QueueLen returns the number of waiters on key; diagnostics and tests.
func (lt *LockTable) QueueLen(key LockKey) int {
	s := lt.stripes[lt.stripeIndex(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if l := s.locks[key]; l != nil {
		return len(l.queue)
	}
	return 0
}

// Outstanding reports the number of granted holds — thin row locks
// included — and queued waiters across the whole table. Quiescent
// databases must report 0/0 — the chaos harness's lock-leak invariant (a
// faulted commit or injected panic must not strand a lock entry or an
// owner word).
func (lt *LockTable) Outstanding() (held, queued int) {
	// Releases first: read in this order the difference cannot go
	// negative under concurrent grants.
	released := lt.thinReleases.Total()
	held = int(lt.thinGrants.Total() - released)
	lt.lockAll()
	for _, s := range lt.stripes {
		for _, l := range s.locks {
			held += len(l.holders)
			queued += len(l.queue)
		}
	}
	lt.unlockAll()
	return held, queued
}

// LockStats is a point-in-time snapshot of the lock manager's
// contention counters: how often acquires were satisfied without
// blocking, how often they queued, how long they waited, and how many
// were denied as deadlock victims — per stripe and in aggregate. The
// experiment harness reports these alongside throughput so lock-wait
// time is attributable per run.
type LockStats struct {
	Stripes   int
	FastPath  uint64        // acquires granted without blocking, thin row locks included
	Waits     uint64        // acquires that queued
	Deadlocks uint64        // requests denied with ErrDeadlock
	WaitTime  time.Duration // total blocked time across waiters

	PerStripeWaits []uint64 // queue events by stripe (contention skew)
}

// Stats snapshots the contention counters.
func (lt *LockTable) Stats() LockStats {
	return LockStats{
		Stripes:        len(lt.stripes),
		FastPath:       lt.fastPath.Total() + lt.thinGrants.Total(),
		Waits:          lt.waits.Total(),
		Deadlocks:      lt.deadlocks.Total(),
		WaitTime:       lt.waitHist.Sum(),
		PerStripeWaits: lt.waits.PerShard(),
	}
}

// WaitHistogram snapshots the distribution of blocked-acquire durations.
func (lt *LockTable) WaitHistogram() metrics.HistSnapshot { return lt.waitHist.Snapshot() }

// Delta returns s minus an earlier snapshot prev (counter-wise), for
// windowed measurement (e.g. excluding a workload's ramp-up phase).
func (s LockStats) Delta(prev LockStats) LockStats {
	d := LockStats{
		Stripes:   s.Stripes,
		FastPath:  s.FastPath - prev.FastPath,
		Waits:     s.Waits - prev.Waits,
		Deadlocks: s.Deadlocks - prev.Deadlocks,
		WaitTime:  s.WaitTime - prev.WaitTime,
	}
	d.PerStripeWaits = make([]uint64, len(s.PerStripeWaits))
	for i := range d.PerStripeWaits {
		p := uint64(0)
		if i < len(prev.PerStripeWaits) {
			p = prev.PerStripeWaits[i]
		}
		d.PerStripeWaits[i] = s.PerStripeWaits[i] - p
	}
	return d
}
