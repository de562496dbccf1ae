package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"sicost/internal/core"
	"sicost/internal/faultinject"
	"sicost/internal/storage"
	"sicost/internal/trace"
	"sicost/internal/wal"
)

// logBytesPerWrite approximates the WAL payload of one row update (tuple
// image plus header); it only feeds the simulated device's byte counter.
const logBytesPerWrite = 120

// writeRec tracks one row write of a transaction.
type writeRec struct {
	table *storage.Table
	key   core.Value
	row   *storage.Row
	ver   *storage.Version
}

// sfuRec tracks one select-for-update target.
type sfuRec struct {
	table *storage.Table
	key   core.Value
	row   *storage.Row
}

// Tx is one transaction. It is a session-like handle: use from a single
// goroutine, finish with Commit or Abort exactly once (Abort after a
// failed Commit is a no-op).
type Tx struct {
	db    *DB
	id    uint64
	start uint64
	tag   string
	done  bool
	// reg marks the handle as counted in the DB's shutdown drain;
	// cleared by endTx. Handles rejected during shutdown are never
	// registered.
	reg bool
	// admitted marks a handle holding an admission-gate slot; endTx
	// releases it along with the drain registration.
	admitted bool
	// deadline is the transaction's absolute time budget (zero = none);
	// seeded from DB.SetDefaultTxDeadline, overridable per handle.
	// Checked between statements, bounded into every lock wait, and
	// honoured by the sync-commit WAL flush-group wait.
	deadline time.Time

	// slot is the processor slot Begin registered the handle in
	// (slot.go); snapPrev/snapNext link it into the slot's list of open
	// handles, from Begin to endTx, guarded by the slot's mutex.
	slot               *txSlot
	snapPrev, snapNext *Tx

	writes []writeRec
	sfus   []sfuRec
	// bulk holds what a bulk insert placed (insertRows), table by table,
	// and bulkRows the rows as they are logged. Each table's batch holds
	// the table's stripe mutexes until Commit releases it or Abort takes
	// its rows out again.
	bulk     []bulkTable
	bulkRows []wal.RowImage
	// thin holds the rows whose write lock this transaction took in the
	// row itself (storage.LockTable.AcquireRowUntil), to be handed back
	// when it ends.
	thin []*storage.Row
	// bufs is where the backing arrays of writes and thin came from and
	// go back to (nil until the first of either).
	bufs *txBufs
	// updater keeps ReadOnly's answer once the arrays are gone.
	updater bool

	// failedErr is set after a serialization failure or deadlock; like
	// PostgreSQL's "current transaction is aborted" state, every later
	// statement returns it and Commit rolls back instead.
	failedErr error

	// abortCause remembers the error that doomed the transaction (the
	// first retriable failure, or a commit-path error) so Abort can
	// attribute the rollback to its core.ClassifyAbort taxonomy class.
	// nil means a voluntary rollback (AbortNone).
	abortCause error

	nStmts int

	// asyncOverride is the per-transaction synchronous_commit override:
	// 0 follows Config.AsyncCommit, +1 forces async, -1 forces sync.
	asyncOverride int8
	// commitCSN / durable are set by an async Commit: the published CSN
	// and the WAL's durability future for its record.
	commitCSN uint64
	durable   <-chan error

	ssi *ssiTxn // nil unless SerializableSI
}

// txBufs carries the backing arrays of Tx.writes and Tx.thin from one
// transaction to the next, so a three-row program does not allocate them
// at all.
// rec is a sync commit's log record, reused with its verdict channel, its
// frame buffer and its row images: the buffers go back to the pool only
// when the transaction ends, and by then a sync commit has received its
// record's verdict, or withdrawn the record, or failed to enqueue it.
type txBufs struct {
	writes []writeRec
	thin   []*storage.Row
	rec    wal.Record
}

var txBufPool = sync.Pool{New: func() any { return new(txBufs) }}

// borrow points writes and thin at recycled arrays before the first
// append to either. It runs only after a lock is granted: a handle
// blocked in a lock wait has written nothing an Abort from outside
// reads.
func (tx *Tx) borrow() {
	if tx.bufs == nil {
		tx.bufs = txBufPool.Get().(*txBufs)
		tx.writes, tx.thin = tx.bufs.writes[:0], tx.bufs.thin[:0]
	}
}

// recycle hands the arrays back, cleared of their pointers; the handle
// keeps none, so a late use of it cannot reach another transaction's.
func (tx *Tx) recycle() {
	b := tx.bufs
	if b == nil {
		return
	}
	tx.updater = !tx.ReadOnly()
	clear(tx.writes)
	clear(tx.thin)
	clear(b.rec.Rows)
	b.writes, b.thin, b.rec.Rows = tx.writes[:0], tx.thin[:0], b.rec.Rows[:0]
	tx.bufs, tx.writes, tx.thin = nil, nil, nil
	txBufPool.Put(b)
}

// closedDurable is the pre-resolved durability future handed out for
// sync commits, read-only commits, and logless configurations: by the
// time Commit returned, the transaction was as durable as it will ever
// be.
var closedDurable = func() <-chan error {
	ch := make(chan error)
	close(ch)
	return ch
}()

// ID returns the transaction id.
func (tx *Tx) ID() uint64 { return tx.id }

// Cost returns the database's strategy cost model (convenience for
// transaction programs that charge modification penalties).
func (tx *Tx) Cost() CostModel { return tx.db.cost }

// Platform returns the database's platform profile.
func (tx *Tx) Platform() core.Platform { return tx.db.cfg.Platform }

// StartCSN returns the snapshot's commit sequence number.
func (tx *Tx) StartCSN() uint64 { return tx.start }

// SetTag attaches an application label (e.g. the transaction type); the
// trace's terminal event carries it, which is how an anomaly witness
// names the programs on its cycle.
func (tx *Tx) SetTag(tag string) { tx.tag = tag }

// SetDeadline overrides the transaction's absolute deadline (zero
// clears it). Past the deadline every statement fails with
// core.ErrTxDeadline, a lock wait still pending is withdrawn with the
// same error, and a sync Commit whose WAL flush-group wait outlives the
// deadline withdraws its record and aborts cleanly if the record has
// not yet been handed to the device (if it has, the commit completes —
// fully durable — rather than half-published). Deadline expiry is not
// retriable: the interaction's time budget is spent.
func (tx *Tx) SetDeadline(d time.Time) { tx.deadline = d }

// Deadline returns the transaction's absolute deadline (zero = none).
func (tx *Tx) Deadline() time.Time { return tx.deadline }

// expired reports whether the transaction has a deadline and it has
// passed. One clock read; only called on paths that already cost a
// statement or a commit.
func (tx *Tx) expired() bool {
	return !tx.deadline.IsZero() && !time.Now().Before(tx.deadline)
}

// SetAsync overrides the database's async-commit default for this
// transaction (PostgreSQL's per-session synchronous_commit). With async
// on, Commit returns as soon as the commit is published; durability is
// awaited via Durable or DB.WaitDurable.
func (tx *Tx) SetAsync(async bool) {
	if async {
		tx.asyncOverride = 1
	} else {
		tx.asyncOverride = -1
	}
}

// asyncCommit reports whether this transaction's Commit skips the
// durability wait.
func (tx *Tx) asyncCommit() bool {
	switch tx.asyncOverride {
	case 1:
		return true
	case -1:
		return false
	}
	return tx.db.cfg.AsyncCommit
}

// CommitCSN returns the published commit sequence number after a
// successful updating Commit (0 for read-only commits and before
// Commit).
func (tx *Tx) CommitCSN() uint64 { return tx.commitCSN }

// Durable returns the commit's durability future: it yields nil once
// the commit record is on the platter, or the WAL's sticky error if the
// device died first (the commit is visible but will not survive a
// crash). For sync commits, read-only commits, and logless databases
// the future is already resolved.
func (tx *Tx) Durable() <-chan error {
	if tx.durable != nil {
		return tx.durable
	}
	return closedDurable
}

// acquire takes the row lock behind the FaultLockAcquire point, bounded
// by Config.LockWaitTimeout and the transaction's deadline. With row set
// (the SI modes, where every lock is an exclusive lock on a row anchor in
// hand) the lock is the row's owner word unless somebody contends for
// it; without, the request goes through the lock table.
func (tx *Tx) acquire(key storage.LockKey, mode storage.LockMode, row *storage.Row) error {
	if tx.db.faults != nil {
		if err := tx.db.faults.Fire(FaultLockAcquire, faultinject.Ctx{Tx: tx.id, Table: key.Table, Key: key.Key}); err != nil {
			return err
		}
	}
	if row == nil {
		return tx.db.locks.AcquireUntil(tx.id, key, mode, tx.db.cfg.LockWaitTimeout, tx.deadline)
	}
	thin, err := tx.db.locks.AcquireRowUntil(tx.id, key, row, tx.db.cfg.LockWaitTimeout, tx.deadline)
	if thin {
		tx.borrow()
		tx.thin = append(tx.thin, row)
	}
	return err
}

// releaseLocks drops every lock the transaction holds, thin or in the
// table, and ejects it from any wait queue.
func (tx *Tx) releaseLocks() { tx.db.locks.ReleaseTx(tx.id, tx.thin) }

// Charge spends d of simulated CPU on behalf of this transaction, on top
// of the per-statement costs. The SmallBank strategies use it to apply
// the platform cost model's per-modification penalties.
func (tx *Tx) Charge(d time.Duration) {
	tx.db.machine.UseCPU(d)
}

// stmt charges one statement's base CPU and validates the handle.
func (tx *Tx) stmt() error {
	if tx.done {
		return core.ErrTxDone
	}
	if tx.failedErr != nil {
		return tx.failedErr
	}
	if tx.ssi != nil && tx.ssi.doomed() {
		return tx.fail(core.ErrSerialization)
	}
	if tx.expired() {
		return tx.fail(core.ErrTxDeadline)
	}
	tx.nStmts++
	tx.db.machine.UseCPU(tx.db.machine.Config().StmtCPU)
	return nil
}

// fail records a concurrency failure: the transaction can only abort
// from here on (PostgreSQL aborts the whole transaction on any error;
// we apply that to the retriable class, which is what the benchmark's
// retry discipline depends on). Deadline expiry poisons the handle the
// same way even though it is not retriable — a transaction past its
// deadline must not keep executing statements.
func (tx *Tx) fail(err error) error {
	if (core.IsRetriable(err) || errors.Is(err, core.ErrTxDeadline)) && tx.failedErr == nil {
		tx.failedErr = err
		tx.abortCause = err
	}
	return err
}

// traceConflict emits an EvConflict lifecycle event when tracing is on.
func (tx *Tx) traceConflict(cause uint8, table string, key core.Value) {
	if tx.db.tracer.Enabled() {
		tx.db.tracer.Emit(trace.Event{
			Kind: trace.EvConflict, Tx: tx.id,
			Table: table, Key: key, Reason: cause,
		})
	}
}

// traceStmt emits a statement-start lifecycle event (EvRead, EvWrite or
// EvSFU) when tracing is on. Emission precedes any lock wait the
// statement may enter, so each transaction's event order equals its
// statement dispatch order — the property detsim's trace replay relies
// on.
func (tx *Tx) traceStmt(kind trace.Kind, table string, key core.Value) {
	if tx.db.tracer.Enabled() {
		tx.db.tracer.Emit(trace.Event{Kind: kind, Tx: tx.id, Table: table, Key: key})
	}
}

func (tx *Tx) table(name string) (*storage.Table, error) {
	return tx.db.store.Table(name)
}

// Schema returns the named table's schema (catalog lookup; no
// statement cost).
func (tx *Tx) Schema(table string) (*core.Schema, error) {
	tbl, err := tx.table(table)
	if err != nil {
		return nil, err
	}
	return tbl.Schema(), nil
}

// visibleVersion resolves the version this transaction reads for a row,
// per the concurrency-control mode. Returns nil when no visible version
// exists.
func (tx *Tx) visibleVersion(row *storage.Row) *storage.Version {
	if tx.db.cfg.Mode == core.Strict2PL {
		// 2PL has no snapshots: read your own write, else the newest
		// committed version (locking makes this safe).
		if h := row.Head(); h != nil && h.Creator == tx.id && h.CSN() == 0 {
			return h
		}
		return row.NewestCommitted()
	}
	return row.Visible(tx.start, tx.id)
}

// recordRead puts the version a read resolved to into the trace: the
// EvReadVer events of a transaction are its dependency-relevant read
// set, which is what both isolation checkers rebuild from the stream.
// Reads of the transaction's own writes are not dependencies and are
// skipped.
func (tx *Tx) recordRead(tbl *storage.Table, key core.Value, v *storage.Version) {
	if !tx.db.tracer.Enabled() || (v.Creator == tx.id && v.CSN() == 0) {
		return
	}
	tx.db.tracer.Emit(trace.Event{Kind: trace.EvReadVer, Tx: tx.id, Table: tbl.Name(), Key: key, CSN: v.CSN()})
}

// Get returns the record stored under key in table, as visible to this
// transaction. Under Strict2PL it first takes a shared lock.
func (tx *Tx) Get(table string, key core.Value) (core.Record, error) {
	if err := tx.stmt(); err != nil {
		return nil, err
	}
	tbl, err := tx.table(table)
	if err != nil {
		return nil, err
	}
	tx.traceStmt(trace.EvRead, table, key)
	if tx.db.cfg.Mode == core.Strict2PL {
		if err := tx.acquire(storage.LockKey{Table: table, Key: key}, storage.Shared, nil); err != nil {
			return nil, tx.fail(err)
		}
	}
	row, err := tbl.ReadRow(tx.id, key)
	if err != nil {
		return nil, err
	}
	if row == nil {
		return nil, core.ErrNotFound
	}
	v := tx.visibleVersion(row)
	if v == nil || v.Rec == nil {
		return nil, core.ErrNotFound
	}
	if tx.ssi != nil {
		if err := tx.db.ssi.onRead(tx, table, key, row); err != nil {
			tx.traceConflict(trace.ConflictSSI, table, key)
			return nil, tx.fail(err)
		}
	}
	tx.recordRead(tbl, key, v)
	return v.Rec, nil
}

// GetByIndex resolves key through the unique secondary index on column
// and returns the indexed record (SmallBank's Account.Name→CustomerID
// hop is a direct PK read; this supports lookups the other way).
func (tx *Tx) GetByIndex(table, column string, val core.Value) (core.Record, error) {
	if err := tx.stmt(); err != nil {
		return nil, err
	}
	tbl, err := tx.table(table)
	if err != nil {
		return nil, err
	}
	for _, ix := range tbl.Indexes() {
		if ix.Column() != column {
			continue
		}
		snap := tx.start
		if tx.db.cfg.Mode == core.Strict2PL {
			snap = ^uint64(0)
		}
		pk, ok := ix.Lookup(snap, tx.id, val)
		if !ok {
			return nil, core.ErrNotFound
		}
		// Do not double-charge the statement cost for the inner read.
		tx.nStmts--
		return tx.Get(table, pk)
	}
	return nil, fmt.Errorf("engine: table %s has no unique index on %s", table, column)
}

// lockForWrite acquires the exclusive row lock and applies the
// First-Updater-Wins visibility check (SI modes): after the lock is
// granted — possibly after blocking behind a concurrent writer — the
// newest committed version must belong to this transaction's snapshot,
// otherwise the update targets a row concurrently updated and the
// transaction must abort with a serialization failure.
func (tx *Tx) lockForWrite(tbl *storage.Table, key core.Value, row *storage.Row) error {
	lk := storage.LockKey{Table: tbl.Name(), Key: key}
	if tx.db.cfg.Mode == core.Strict2PL {
		// Through the table: shared holders need its holder sets. No
		// version check either: locks alone order 2PL writers.
		if err := tx.acquire(lk, storage.Exclusive, nil); err != nil {
			return tx.fail(err)
		}
		return nil
	}
	if err := tx.acquire(lk, storage.Exclusive, row); err != nil {
		return tx.fail(err)
	}
	if nc := row.NewestCommitted(); nc != nil && nc.CSN() > tx.start {
		tx.traceConflict(trace.ConflictFUW, tbl.Name(), key)
		return tx.fail(core.ErrSerialization)
	}
	if tx.db.cfg.Platform == core.PlatformCommercial && row.LastSFUCommit() > tx.start {
		// A concurrent transaction select-for-updated this row and
		// committed: the commercial platform treats that like a write.
		tx.traceConflict(trace.ConflictSFUCommit, tbl.Name(), key)
		return tx.fail(core.ErrSerialization)
	}
	return nil
}

// Update replaces the record under key. The record must satisfy the
// schema and keep its primary key equal to key. Missing rows yield
// ErrNotFound; concurrent updates yield ErrSerialization (SI modes).
func (tx *Tx) Update(table string, key core.Value, rec core.Record) error {
	if err := tx.stmt(); err != nil {
		return err
	}
	tbl, err := tx.table(table)
	if err != nil {
		return err
	}
	if err := tbl.Schema().CheckRecord(rec); err != nil {
		return err
	}
	if tbl.Schema().Key(rec) != key {
		return fmt.Errorf("engine: update of %s changes primary key %v to %v", table, key, tbl.Schema().Key(rec))
	}
	tx.traceStmt(trace.EvWrite, table, key)
	row, err := tbl.WriteRow(tx.id, key)
	if err != nil {
		return err
	}
	if row == nil {
		return core.ErrNotFound
	}
	if err := tx.lockForWrite(tbl, key, row); err != nil {
		return err
	}
	v := tx.visibleVersion(row)
	if v == nil || v.Rec == nil {
		return core.ErrNotFound
	}
	if tx.ssi != nil {
		if err := tx.db.ssi.onWrite(tx, table, key); err != nil {
			tx.traceConflict(trace.ConflictSSI, table, key)
			return tx.fail(err)
		}
	}
	if v.Creator == tx.id && v.CSN() == 0 {
		// A second write to the same row within this transaction: the
		// version it installed gets the new image.
		row.UpdateOwn(tx.id, rec.Clone())
		return nil
	}
	tx.install(tbl, key, row, rec)
	return nil
}

// install links a new uncommitted version of row carrying a copy of
// image (nil: a tombstone) and records the write. The copy is the
// version's own (storage.NewVersion), so image does not escape, and
// neither does the record literal of an Update or Insert call site.
func (tx *Tx) install(tbl *storage.Table, key core.Value, row *storage.Row, image core.Record) {
	ver := storage.NewVersion(image, tx.id)
	row.Install(ver)
	tx.borrow()
	tx.writes = append(tx.writes, writeRec{table: tbl, key: key, row: row, ver: ver})
}

// Insert adds a new record; it fails with ErrUniqueViolation when a live
// row with the same primary key (or a duplicated unique column) exists.
func (tx *Tx) Insert(table string, rec core.Record) error {
	if err := tx.stmt(); err != nil {
		return err
	}
	tbl, err := tx.table(table)
	if err != nil {
		return err
	}
	if err := tbl.Schema().CheckRecord(rec); err != nil {
		return err
	}
	key := tbl.Schema().Key(rec)
	tx.traceStmt(trace.EvWrite, table, key)
	row, err := tbl.EnsureWriteRow(tx.id, key)
	if err != nil {
		return err
	}
	if err := tx.lockForWrite(tbl, key, row); err != nil {
		return err
	}
	if v := tx.visibleVersion(row); v != nil && v.Rec != nil {
		return core.ErrUniqueViolation
	}
	if nc := row.NewestCommitted(); nc != nil && nc.Rec != nil {
		// A live committed version outside our snapshot: the primary key
		// is taken even though we cannot see it.
		return core.ErrUniqueViolation
	}
	for _, ix := range tbl.Indexes() {
		if err := ix.Insert(tx.id, rec[ix.ColPos()], key); err != nil {
			return err
		}
	}
	if tx.ssi != nil {
		if err := tx.db.ssi.onWrite(tx, table, key); err != nil {
			tx.traceConflict(trace.ConflictSSI, table, key)
			return tx.fail(err)
		}
	}
	tx.install(tbl, key, row, rec)
	return nil
}

// Delete removes the row under key (writing a tombstone version).
func (tx *Tx) Delete(table string, key core.Value) error {
	if err := tx.stmt(); err != nil {
		return err
	}
	tbl, err := tx.table(table)
	if err != nil {
		return err
	}
	tx.traceStmt(trace.EvWrite, table, key)
	row, err := tbl.WriteRow(tx.id, key)
	if err != nil {
		return err
	}
	if row == nil {
		return core.ErrNotFound
	}
	if err := tx.lockForWrite(tbl, key, row); err != nil {
		return err
	}
	v := tx.visibleVersion(row)
	if v == nil || v.Rec == nil {
		return core.ErrNotFound
	}
	for _, ix := range tbl.Indexes() {
		ix.Delete(tx.id, v.Rec[ix.ColPos()])
	}
	if tx.ssi != nil {
		if err := tx.db.ssi.onWrite(tx, table, key); err != nil {
			tx.traceConflict(trace.ConflictSSI, table, key)
			return tx.fail(err)
		}
	}
	if row.UpdateOwn(tx.id, nil) {
		return nil
	}
	tx.install(tbl, key, row, nil)
	return nil
}

// ReadForUpdate is SELECT ... FOR UPDATE. On both platforms it takes the
// exclusive row lock and fails with ErrSerialization when the row was
// updated by a concurrent committed transaction. On PlatformCommercial
// the lock additionally acts like a write for conflict purposes: its
// commit is remembered on the row, so later concurrent writers abort —
// the paper's §II-C commercial semantics. On PlatformPostgres a committed
// select-for-update leaves no trace (the §II-C interleaving is allowed).
func (tx *Tx) ReadForUpdate(table string, key core.Value) (core.Record, error) {
	if err := tx.stmt(); err != nil {
		return nil, err
	}
	tbl, err := tx.table(table)
	if err != nil {
		return nil, err
	}
	tx.traceStmt(trace.EvSFU, table, key)
	row, err := tbl.ReadRow(tx.id, key)
	if err != nil {
		return nil, err
	}
	if row == nil {
		return nil, core.ErrNotFound
	}
	if err := tx.lockForWrite(tbl, key, row); err != nil {
		return nil, err
	}
	v := tx.visibleVersion(row)
	if v == nil || v.Rec == nil {
		return nil, core.ErrNotFound
	}
	if tx.ssi != nil {
		if err := tx.db.ssi.onRead(tx, table, key, row); err != nil {
			tx.traceConflict(trace.ConflictSSI, table, key)
			return nil, tx.fail(err)
		}
	}
	tx.recordRead(tbl, key, v)
	if tx.db.cfg.Platform == core.PlatformCommercial && tx.db.cfg.Mode != core.Strict2PL {
		tx.sfus = append(tx.sfus, sfuRec{table: tbl, key: key, row: row})
	}
	return v.Rec, nil
}

// ReadOnly reports whether the transaction has performed no writes (and,
// on the commercial platform, no select-for-updates).
func (tx *Tx) ReadOnly() bool {
	return !tx.updater && len(tx.writes) == 0 && len(tx.sfus) == 0 && len(tx.bulkRows) == 0
}

// firstWriteTo reports whether tx.writes[i] is the transaction's first
// write to its table, so per-table work (index commit and abort) runs
// once per table. A transaction writes a handful of rows; scanning
// them costs less than a set.
func (tx *Tx) firstWriteTo(i int) bool {
	for _, w := range tx.writes[:i] {
		if w.table == tx.writes[i].table {
			return false
		}
	}
	return true
}

// rowImages appends to rows the final after-image of every row this
// transaction wrote, for the durable commit record: the rows of its
// writes, then those of its bulk insert. tx.writes holds one
// entry per distinct row (repeat writes go through Row.UpdateOwn and
// mutate the existing version in place), so w.ver.Rec is already the
// final image; a nil Rec is a delete tombstone. The images are read
// while the rows are still X-locked by this transaction and are never
// mutated after commit, so no copies are needed.
//
// Select-for-update re-stamps (tx.sfus) are deliberately absent: an SFU
// changes no row content, only the row's lastSFUCommit watermark, which
// exists to detect write conflicts against concurrent transactions —
// and every concurrent transaction dies with the crash, so the
// watermark is dead metadata to a recovered instance. An SFU-only
// commit still logs a (row-less) frame carrying its CSN, keeping the
// recovered sequencer's high-water mark exact.
func (tx *Tx) rowImages(rows []wal.RowImage) []wal.RowImage {
	rows = slices.Grow(rows, len(tx.writes)+len(tx.bulkRows))
	for _, w := range tx.writes {
		rows = append(rows, wal.RowImage{Table: w.table.Name(), Key: w.key, Rec: w.ver.Rec})
	}
	return append(rows, tx.bulkRows...)
}

// waitFlush takes a sync commit's record to its flush verdict. The
// committer flushes on its own goroutine (wal.WAL.Lead): with no flush
// running it leads — it writes and syncs its own record and everybody
// else's queued with it — and otherwise waits in line to lead next, or
// for whoever leads to reach its record.
//
// The wait is bounded by the transaction deadline. The commit must end
// fully durable or cleanly aborted, never half-published, so deadline
// expiry is only honoured while the record can still be torn from the
// log: if WAL.Withdraw wins (the record was still queued behind somebody
// else's flush, no window claimed it) the commit fails with
// core.ErrTxDeadline and the caller rolls back exactly like an enqueue
// failure — versions unstamped, CSN published as an empty slot. A
// committer that leads is in flight, as is a record a window has
// claimed: the verdict is awaited and the commit completes — late, but
// durable. Async commits never reach here: they publish first and carry
// their durability debt in the future.
func (tx *Tx) waitFlush(rec *wal.Record, done <-chan error) error {
	tx.db.log.Lead(rec, tx.deadline.IsZero())
	// Whoever leads is a flush window away from the verdict: poll for it
	// before blocking on it.
	var err error
	if tx.db.log.Spin(func() bool {
		select {
		case err = <-done:
			return true
		default:
			return false
		}
	}) {
		return err
	}
	if tx.deadline.IsZero() {
		return <-done
	}
	select {
	case err := <-done:
		return err
	default:
	}
	rem := time.Until(tx.deadline)
	if rem > 0 {
		timer := time.NewTimer(rem)
		select {
		case err := <-done:
			timer.Stop()
			return err
		case <-timer.C:
		}
	}
	if tx.db.log.Withdraw(rec) {
		return core.ErrTxDeadline
	}
	return <-done
}

// Commit finishes the transaction. For updating transactions it waits
// for the simulated WAL (group commit), assigns the commit sequence
// number, stamps versions and releases locks. Read-only transactions
// pay none of that, which is the cost asymmetry the paper's strategies
// trade on. On error the transaction is aborted and the error returned.
func (tx *Tx) Commit() error {
	if tx.done {
		return core.ErrTxDone
	}
	if tx.failedErr != nil {
		// The transaction is in the aborted state (a serialization
		// failure or deadlock occurred); COMMIT acts as ROLLBACK, as in
		// PostgreSQL.
		err := tx.failedErr
		tx.abortCause = err
		tx.Abort()
		return err
	}
	if tx.ssi != nil && tx.ssi.doomed() {
		tx.traceConflict(trace.ConflictSSI, "", core.Value{})
		tx.abortCause = core.ErrSerialization
		tx.Abort()
		return core.ErrSerialization
	}
	if tx.expired() {
		// Past the deadline nothing may be made durable or visible:
		// versions are still unstamped and unpublished, so this is a
		// clean rollback, exactly like a failed statement.
		tx.abortCause = core.ErrTxDeadline
		tx.Abort()
		return core.ErrTxDeadline
	}

	// Select-for-update on the commercial platform generates redo for
	// the row locks (as Oracle does), so sfu-only transactions pay the
	// updater's commit path too.
	updating := len(tx.writes) > 0 || len(tx.sfus) > 0 || len(tx.bulkRows) > 0

	// Every updating commit is metered: two clock reads against a
	// commit cycle of microseconds.
	var commitStart time.Time
	if updating {
		commitStart = time.Now()
	}

	if !updating && tx.ssi != nil {
		// Enter the committing state: from here this transaction cannot
		// be picked as an SSI abort victim, and a doom that raced the
		// check above is caught now. Updating commits do this below,
		// inside the commit window but before their WAL write — a
		// doomed transaction must never make a commit frame durable.
		if err := tx.db.ssi.precommit(tx); err != nil {
			tx.traceConflict(trace.ConflictSSI, "", core.Value{})
			tx.abortCause = err
			tx.Abort()
			return err
		}
	}

	// Read-only: logically commits at its snapshot.
	commitCSN := tx.start

	if updating {
		// Commit-time CPU of an updating transaction (log-record and
		// redo construction), charged before the device wait.
		tx.db.machine.UseCPU(tx.db.machine.Config().UpdaterCommitCPU)
		// The stamp fault fires before the CSN exists: the last point
		// where this commit can abort cleanly — versions unlinked,
		// index entries removed, locks released, waiters woken —
		// without touching the sequencer.
		if tx.db.faults != nil {
			if err := tx.db.faults.Fire(FaultCommitStamp, faultinject.Ctx{Tx: tx.id}); err != nil {
				tx.abortCause = err
				tx.Abort()
				return err
			}
		}
		// The wal/commit fault fires before the sequencer is touched: an
		// ActPanic here (a session crash at the commit point) unwinds
		// with no allocated-but-unpublished CSN, so nothing needs
		// compensating.
		if err := tx.db.log.CommitFault(tx.id); err != nil {
			tx.abortCause = err
			tx.Abort()
			return err
		}
		// SSI precommit must precede the log enqueue: recovery replays
		// every durable commit frame and there is no abort/compensation
		// record, so a transaction doomed here must abort having logged
		// nothing — a frame enqueued first could become durable and
		// resurrect its writes after a crash. Once precommit succeeds
		// the transaction is unabortable (a dangerous structure forming
		// during the device wait dooms the fallback victim instead), so
		// the frame enqueued next can never belong to an aborted
		// transaction. An enqueue or flush failure after precommit still
		// aborts cleanly: nothing was acknowledged durable, and
		// ssi.abort clears the committing state.
		if tx.ssi != nil {
			if err := tx.db.ssi.precommit(tx); err != nil {
				tx.traceConflict(trace.ConflictSSI, "", core.Value{})
				tx.abortCause = err
				tx.Abort()
				return err
			}
		}
		// Commit sequencing is two short critical sections around a
		// lock-free middle: allocate the CSN and enqueue the commit
		// record in one step (queue order = CSN order, the durability-
		// watermark invariant); wait for durability (sync mode); stamp
		// versions and index entries (safe without a global lock — every
		// stamped row is X-locked by this transaction, and new snapshots
		// cannot see the CSN until it is published); then publish in CSN
		// order. A checkpoint takes its cut in the same sequencer, so no
		// commit waits for one.
		//
		// WAL before visibility (the default): the commit record —
		// carrying the CSN and the row after-images — must be durable
		// before the commit publishes. The reverse order would let a
		// later durable commit embed effects of this one while this one
		// is lost in a crash. Group commit coalesces the device waits of
		// concurrent committers into shared syncs; locks are held
		// through the wait, so a blocked FUW writer waits through our
		// fsync — exactly the PostgreSQL behaviour.
		//
		// Async mode (synchronous_commit=off) skips the wait: the commit
		// publishes immediately and the durability future resolves when
		// the record's covering sync lands. A crash in between loses the
		// commit even though the application saw it succeed — which is
		// why the record is flagged Async: the WAL must brick on its
		// failure rather than pretend the published commit never
		// happened.
		//
		// A sync commit's record is the transaction's own (txBufs); an
		// async one outlives the commit, its channel handed to the
		// caller (Durable), so it is made afresh.
		async := tx.asyncCommit()
		var rec *wal.Record
		if async {
			rec = &wal.Record{Async: true}
		} else {
			tx.borrow()
			rec = &tx.bufs.rec
		}
		rec.TxID = tx.id
		// A bulk load's commit is synced but not clocked: the simulated
		// sync times the measured run's commits, not the load's.
		rec.Bulk = len(tx.bulk) > 0
		rec.Bytes = logBytesPerWrite * (len(tx.writes) + len(tx.sfus) + len(tx.bulkRows))
		if tx.db.log.Persistent() {
			if async && len(tx.writes) == 0 {
				// A bulk insert's rows are logged as they were given, not
				// copied: the record is the commit's own, and nothing
				// reads its rows once they are encoded.
				rec.Rows = tx.bulkRows
			} else {
				rec.Rows = tx.rowImages(rec.Rows[:0])
			}
			// Encoded here, outside the sequencer: Enqueue only stamps
			// the CSN into the frame.
			tx.db.log.Encode(rec)
			if async {
				rec.Rows = nil
			}
		}
		csn, done, err := tx.db.allocCSNEnqueue(rec)
		if err == nil && !async && done != nil {
			err = tx.waitFlush(rec, done)
		}
		if err != nil {
			// The CSN is allocated but nothing carries it: publish the
			// empty slot so successors do not wait forever, then roll
			// back (versions are still unstamped, so Abort unlinks them).
			tx.db.publishCSN(csn)
			tx.abortCause = err
			tx.Abort()
			return err
		}
		for _, w := range tx.writes {
			w.ver.MarkCommitted(csn)
		}
		for _, b := range tx.bulk {
			b.ins.Stamp(csn)
		}
		// The committed write set, one EvWriteVer per row, emitted after
		// the CSN exists and before EvCommit (same shard, so per-tx FIFO
		// puts the set ahead of the commit event). Statement-level
		// EvWrite events cannot serve here: they over-approximate (a
		// failed statement still emitted one) and carry no CSN.
		if tx.db.tracer.Enabled() {
			for _, w := range tx.writes {
				tx.db.tracer.Emit(trace.Event{Kind: trace.EvWriteVer, Tx: tx.id, Table: w.table.Name(), Key: w.key, CSN: csn})
			}
			for _, r := range tx.bulkRows {
				tx.db.tracer.Emit(trace.Event{Kind: trace.EvWriteVer, Tx: tx.id, Table: r.Table, Key: r.Key, CSN: csn})
			}
		}
		// One horizon read serves the index entries now and the version
		// chains after publication; an older horizon only prunes less.
		horizon := tx.db.hz.csn.Load()
		for i, w := range tx.writes {
			if len(w.table.Indexes()) > 0 && tx.firstWriteTo(i) {
				for _, ix := range w.table.Indexes() {
					ix.Commit(tx.id, csn, horizon)
				}
			}
		}
		for _, b := range tx.bulk {
			for _, ix := range b.tbl.Indexes() {
				ix.Commit(tx.id, csn, horizon)
			}
		}
		// SFU watermarks are not durable (see rowImages): they only
		// gate conflicts with concurrent transactions, none of which
		// survive a crash.
		for _, s := range tx.sfus {
			s.row.NoteSFUCommit(csn)
		}
		tx.db.publishCSN(csn)
		// Vacuum on write: cut each written chain behind the horizon,
		// after publication (the new version is the one later snapshots
		// read) and before the locks release (no other writer links into
		// these chains meanwhile). Readers walk them lock-free throughout;
		// none reads below the horizon.
		pruned := 0
		for _, w := range tx.writes {
			pruned += w.row.Prune(horizon)
		}
		if pruned > 0 {
			tx.slot.pruned.Add(uint64(pruned))
		}
		// A bulk insert's new rows have nothing to prune; its tables take
		// inserts again once the rows are published.
		for _, b := range tx.bulk {
			b.ins.Release()
		}
		if len(tx.bulk) > 0 {
			tx.db.bulkMu.Unlock()
		}
		// Delay-only: the commit is published; a stall here holds row
		// locks across an already-visible commit.
		tx.db.faults.FireDelayOnly(FaultCSNPublish, faultinject.Ctx{Tx: tx.id})
		commitCSN = csn
		tx.commitCSN = csn
		if async {
			tx.durable = done
		}
	}

	if tx.ssi != nil {
		tx.db.ssi.finish(tx, commitCSN)
	}
	tx.releaseLocks()
	tx.done = true
	m := &tx.slot.metrics
	m.Commits.Add(1)
	if updating {
		m.CommitLatency.Record(time.Since(commitStart))
	}
	if tx.db.tracer.Enabled() {
		tx.db.tracer.Emit(trace.Event{Kind: trace.EvCommit, Tx: tx.id, CSN: commitCSN, Tag: tx.tag})
	}
	tx.db.endTx(tx)
	tx.recycle()
	return nil
}

// Abort rolls the transaction back: uncommitted versions are unlinked,
// index entries removed, locks released. Abort after completion is a
// no-op, so `defer tx.Abort()` is safe alongside an explicit Commit.
func (tx *Tx) Abort() {
	if tx.done {
		return
	}
	for i := len(tx.writes) - 1; i >= 0; i-- {
		tx.writes[i].row.RemoveUncommitted(tx.id)
	}
	for i, w := range tx.writes {
		if len(w.table.Indexes()) > 0 && tx.firstWriteTo(i) {
			for _, ix := range w.table.Indexes() {
				ix.Abort(tx.id)
			}
		}
	}
	for _, b := range tx.bulk {
		if b.ins != nil { // nil: placeRows took it out already
			b.ins.Abort()
		}
		for _, ix := range b.tbl.Indexes() {
			ix.Abort(tx.id)
		}
	}
	if len(tx.bulk) > 0 {
		tx.db.bulkMu.Unlock()
	}
	if tx.ssi != nil {
		tx.db.ssi.abort(tx)
	}
	tx.releaseLocks()
	tx.done = true
	if tx.id != 0 {
		// Handles rejected at Begin (shutdown) never ran; they are not
		// aborted work.
		reason := core.ClassifyAbort(tx.abortCause)
		tx.slot.metrics.Aborts.Inc(reason)
		if tx.db.tracer.Enabled() {
			tx.db.tracer.Emit(trace.Event{Kind: trace.EvAbort, Tx: tx.id, Reason: uint8(reason), Tag: tx.tag})
		}
	}
	tx.db.endTx(tx)
	tx.recycle()
}

// Stmts returns the number of statements executed so far (diagnostics).
func (tx *Tx) Stmts() int { return tx.nStmts }
