// Package engine implements the transactional database engines the paper
// evaluates on: snapshot isolation with the First-Updater-Wins rule (the
// PostgreSQL platform), the commercial platform's SI variant (where
// SELECT ... FOR UPDATE participates in write-conflict detection), strict
// two-phase locking, and — as a forward-looking extension — serializable
// SI (runtime rw-antidependency detection).
//
// The engine is an in-memory multiversion system over internal/storage.
// Simulated hardware costs (CPU service time, WAL fsyncs with group
// commit) are charged at the points where the real systems pay them, so
// the workload driver reproduces the paper's throughput shapes.
package engine

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"sicost/internal/admission"
	"sicost/internal/core"
	"sicost/internal/faultinject"
	"sicost/internal/metrics"
	"sicost/internal/simres"
	"sicost/internal/storage"
	"sicost/internal/trace"
	"sicost/internal/wal"
)

// Fault-point names of the engine's hot paths. Points past the commit
// point (CSN allocation and publication) are delay-only: an injected
// error there could not be rolled back without acknowledging a lie, so
// only stalls are honoured (see faultinject.FireDelayOnly).
const (
	// FaultBegin fires when a transaction starts, before its snapshot
	// is taken. An injected error poisons the handle (every statement
	// and the commit return it); a delay stalls the snapshot point.
	FaultBegin = "engine/begin"
	// FaultLockAcquire fires before every row-lock acquisition (the
	// 2PL read path and the write/select-for-update paths of every
	// mode).
	FaultLockAcquire = "engine/lock/acquire"
	// FaultCommitStamp fires at the head of an updating commit's
	// stamping phase, before the CSN is allocated — the last point
	// where the commit can still abort cleanly (locks released,
	// versions unlinked).
	FaultCommitStamp = "engine/commit/stamp"
	// FaultCSNAlloc fires inside CSN allocation (delay-only): a stall
	// here backs up every concurrent committer behind the sequencer.
	FaultCSNAlloc = "engine/commit/csn-alloc"
	// FaultCSNPublish fires after the commit's CSN is published but
	// before its locks release (delay-only): a stall here holds row
	// locks across an already-visible commit, the regime FUW waiters
	// suffer under a slow committer.
	FaultCSNPublish = "engine/commit/csn-publish"
)

// Config assembles one database instance.
type Config struct {
	// Mode selects the concurrency-control algorithm.
	Mode core.CCMode
	// Platform selects behavioural details (select-for-update semantics,
	// cost model defaults) for SI modes.
	Platform core.Platform
	// Res parameterizes the simulated machine; zero disables the model.
	Res simres.Config
	// WAL parameterizes the simulated log device; zero disables it.
	WAL wal.Config
	// AsyncCommit makes Commit return as soon as the commit is
	// published, without waiting for its WAL record to reach the platter
	// (PostgreSQL's synchronous_commit=off). The commit is visible to
	// other transactions immediately; durability arrives later and can
	// be awaited via Tx.Durable or DB.WaitDurable. A crash may lose the
	// tail of acknowledged-but-not-yet-durable commits — never a commit
	// whose durability future has resolved. Per-transaction override:
	// Tx.SetAsync.
	AsyncCommit bool
	// Cost overrides the per-strategy statement penalties; when zero,
	// platform defaults apply (see DefaultCostModel).
	Cost *CostModel
	// LockWaitTimeout bounds every row-lock wait; a wait that exceeds
	// it fails with core.ErrLockTimeout (retriable). Zero waits
	// forever.
	LockWaitTimeout time.Duration
	// Admission, when non-nil, puts an adaptive concurrency gate in
	// front of Begin: at most limit transactions execute at once, up
	// to MaxQueue more wait FIFO, and the rest are shed with
	// core.ErrOverload. An AIMD controller moves the limit from
	// commit-latency and abort-attribution deltas.
	Admission *admission.Config
	// CheckpointLogBytes, when positive, runs a background scheduler
	// that takes a checkpoint (Checkpoint) whenever the log has grown by
	// at least this many bytes since the last checkpoint. Requires a
	// durable device; ignored otherwise.
	CheckpointLogBytes int64
	// RetireSegments unlinks sealed segments wholly covered by a
	// checkpoint after each completed one, bounding log size online.
	RetireSegments bool
	// Faults is the fault-injection registry consulted by the engine,
	// storage and WAL fault points; nil (the default) compiles every
	// hook down to a pointer test.
	Faults *faultinject.Registry
}

// DB is one simulated database instance. Its fields are laid out by
// how transactions use them (DESIGN.md, "Fields written per
// transaction"): what every transaction reads and nobody writes after
// Open comes first (dbSetup), each group written by every transaction
// starts a line of its own, and what only checkpoints and Close write
// comes last. What a transaction writes at its Begin and its end is in
// its processor's slot (slot.go), not here. DB is over 512 bytes, which
// the allocator's size classes place on a line boundary.
type DB struct {
	dbSetup
	_ [cacheLine - unsafe.Sizeof(dbSetup{})%cacheLine]byte

	// hz is the snapshot horizon (horizon.go): a line the transactions
	// read, and a line its recomputation writes.
	hz horizon

	// Commit sequencing, written by every updating commit. The old design
	// held one RWMutex across the whole stamping loop (every snapshot
	// blocked behind every commit); the sequencer now has two short
	// phases. allocCSNEnqueue hands out the next CSN under seqMu; the
	// committer stamps its versions with no global lock held (write
	// conflicts are already excluded per row by the sharded lock table —
	// the stamped rows are X-locked by this transaction); publishCSN then
	// advances visibleCSN in CSN order, so a snapshot (an atomic load of
	// visibleCSN) can never observe a half-stamped commit: versions with
	// CSN > visibleCSN are simply not visible yet.
	seqMu      sync.Mutex
	seqWaiters map[uint64]chan struct{} // csn → its committer's wait channel
	nextCSN    uint64                   // last allocated CSN; guarded by seqMu
	visibleCSN atomic.Uint64
	// seqWaits counts commits that had to wait in publishCSN for an
	// earlier CSN to publish (commit-sequencer contention).
	seqWaits atomic.Uint64
	_        [cacheLine - unsafe.Sizeof(sync.Mutex{}) - 4*8]byte

	// nextTxID is written by every Begin.
	nextTxID atomic.Uint64
	_        [cacheLine - unsafe.Sizeof(atomic.Uint64{})]byte

	// ckptRunMu serializes whole checkpoint runs (a run spans the cut,
	// the streamed rows and the end-marker sync). ckptCut, guarded by it,
	// is the cut of the newest complete checkpoint (0: none).
	ckptRunMu sync.Mutex
	ckptCut   uint64
	// bulkMu is held by a bulk insert from the placing of its rows to the
	// end of its transaction (insertRows).
	bulkMu sync.Mutex
	// ckptPauseNS accumulates the time checkpoints held seqMu to take
	// their cut; lastPauseNS is the most recent hold. ckpts counts
	// completed checkpoints.
	ckptPauseNS atomic.Int64
	lastPauseNS atomic.Int64
	ckpts       atomic.Int64
	// ckptStop/ckptDone manage the log-growth checkpoint scheduler,
	// admStop/admDone the admission controller's tick; closeOnce runs
	// Close's shutdown once.
	ckptStop  chan struct{}
	ckptDone  chan struct{}
	admStop   chan struct{}
	admDone   chan struct{}
	closeOnce sync.Once
}

// dbSetup is the part of DB that Open sets up and every transaction
// reads.
type dbSetup struct {
	cfg     Config
	cost    CostModel
	store   *storage.Store
	locks   *storage.LockTable
	log     *wal.WAL
	machine *simres.Machine
	faults  *faultinject.Registry
	ssi     *ssiState
	// gate is the admission limiter (nil when Config.Admission is nil).
	// Begin acquires a slot before registering with the shutdown drain;
	// endTx releases it. Close closes the gate first, so every queued
	// Begin wakes with ErrShuttingDown before the drain waits.
	gate *admission.Limiter
	// tracer records lifecycle events; nil disables every emission point.
	tracer *trace.Recorder
	// defaultDeadline is the per-transaction budget SetDefaultTxDeadline
	// arms (nanoseconds; 0 = none).
	defaultDeadline atomic.Int64
	// Shutdown: Close sets closing, then waits for the slots' open counts
	// to sum to zero. Begin counts a handle in its slot before it reads
	// closing, and Close sets closing before it sums, so a Begin that
	// does not see closing is in Close's sum. drained wakes Close: a
	// handle that ends, or a Begin that backs out, while closing is set
	// leaves a token in it.
	closing atomic.Bool
	drained chan struct{}
	// slots hands out the processor slots (slot.go), which hz.slots holds.
	slots slotPool
	// handles holds the zeroed handles Txn gave back, per processor;
	// Begin draws from it. A handle Begin returns is never put here.
	handles sync.Pool
}

// Open creates a database instance from cfg.
func Open(cfg Config) *DB {
	cost := DefaultCostModel(cfg.Platform)
	if cfg.Cost != nil {
		cost = *cfg.Cost
	}
	db := &DB{dbSetup: dbSetup{
		cfg:     cfg,
		cost:    cost,
		store:   storage.NewStore(),
		locks:   storage.NewLockTable(),
		log:     wal.New(cfg.WAL),
		machine: simres.New(cfg.Res),
		faults:  cfg.Faults,
		drained: make(chan struct{}, 1),
	}}
	db.hz.init(slotCount())
	db.slots.init(db.hz.slots)
	if cfg.Faults != nil {
		db.store.SetFaults(cfg.Faults)
		db.log.SetFaults(cfg.Faults)
	}
	// A committer polls for another only while every open transaction
	// can have a processor (wal.WAL.Spin).
	db.log.SetCommitters(db.InFlightTxns)
	db.seqWaiters = make(map[uint64]chan struct{})
	if cfg.Mode == core.SerializableSI {
		db.ssi = newSSIState(&db.hz)
	}
	if cfg.Admission != nil {
		db.gate = admission.New(*cfg.Admission)
		db.admStop = make(chan struct{})
		db.admDone = make(chan struct{})
		go db.admissionLoop()
	}
	if cfg.CheckpointLogBytes > 0 && db.log.Persistent() {
		db.ckptStop = make(chan struct{})
		db.ckptDone = make(chan struct{})
		go db.ckptLoop()
	}
	return db
}

// admissionLoop is the controller tick: every limiter interval it feeds
// the AIMD controller the metrics delta since the previous tick —
// commits, storm aborts (serialization + deadlock + lock-timeout, the
// classes that feed retry storms) and the commit-latency quantiles.
func (db *DB) admissionLoop() {
	defer close(db.admDone)
	prev := db.TxnMetrics()
	t := time.NewTicker(db.gate.Interval())
	defer t.Stop()
	for {
		select {
		case <-db.admStop:
			return
		case <-t.C:
			cur := db.TxnMetrics()
			d := cur.Delta(prev)
			prev = cur
			lat := d.CommitLatency
			db.gate.Observe(admission.Observation{
				Commits: d.Commits,
				StormAborts: d.Aborts[core.AbortSerialization] +
					d.Aborts[core.AbortDeadlock] +
					d.Aborts[core.AbortLockTimeout],
				CommitP50: lat.Quantile(0.50),
				CommitP99: lat.Quantile(0.99),
			})
		}
	}
}

// Admission returns the admission limiter, nil when admission control
// is disabled. The cmd layer publishes its Stats as the
// sicost_admission expvar.
func (db *DB) Admission() *admission.Limiter { return db.gate }

// allocCSNEnqueue allocates the next CSN and enqueues the commit's WAL
// record under the same seqMu critical section, so the log's enqueue
// order is exactly CSN order. That invariant is what makes the WAL's
// durability watermark a prefix property: when CSN n is durable, every
// logged commit ≤ n is durable too (the foundation of WaitDurable and
// of async-commit recovery losing only a tail). The critical section is
// the counter and the queue append: the record's frame was encoded
// before it (wal.WAL.Encode) and Enqueue only stamps the CSN in and
// checksums it. On enqueue failure the CSN is still returned — the
// committer must publish it as an empty slot so the publication sequence
// stays gapless.
func (db *DB) allocCSNEnqueue(rec *wal.Record) (uint64, <-chan error, error) {
	db.faults.FireDelayOnly(FaultCSNAlloc, faultinject.Ctx{})
	db.lockSeq()
	db.nextCSN++
	csn := db.nextCSN
	rec.CSN = csn
	done, err := db.log.Enqueue(rec)
	db.seqMu.Unlock()
	return csn, done, err
}

// lockSeq takes seqMu. Its holders stay for a counter bump and a queue
// append, or a map lookup, so a committer polls for it (wal.WAL.Spin)
// before it blocks: a waiter that parks is woken late, and a mutex whose
// waiter waited over a millisecond hands the processor over on every
// Unlock.
func (db *DB) lockSeq() {
	if !db.log.Spin(db.seqMu.TryLock) {
		db.seqMu.Lock()
	}
}

// publishYields bounds how often publishCSN yields the processor to a
// predecessor that has not published yet before it parks.
const publishYields = 16

// publishCSN makes csn visible to new snapshots, in CSN order: a
// committer whose predecessor is still stamping waits here. The wait is
// bounded — between allocCSNEnqueue and publishCSN a committer only stamps
// already-X-locked rows and index entries, never blocks on a lock — so
// the sequencer cannot deadlock. Publication is an exact handoff, not a
// broadcast: a committer that arrives early parks on its own channel,
// and whoever publishes csn-1 closes it — each advance wakes exactly
// the one goroutine that can make progress.
//
// Before it parks, an early committer polls for its predecessor on its
// own processor (wal.WAL.Spin), then yields the processor a few times.
// Queue order is CSN order, so its predecessor's record was durable no
// later than its own: the predecessor is runnable or running and has one
// stamping loop to go, which is shorter than a park and a wake — and
// after a park this committer would become runnable behind whatever the
// predecessor does next. Where the log gives no poll (one processor,
// whose predecessor needs it, or a simulated sync) it only yields.
func (db *DB) publishCSN(csn uint64) {
	db.log.Spin(func() bool { return db.visibleCSN.Load() == csn-1 })
	for i := 0; i < publishYields && db.visibleCSN.Load() != csn-1; i++ {
		runtime.Gosched()
	}
	db.lockSeq()
	if db.visibleCSN.Load() != csn-1 {
		db.seqWaits.Add(1)
		ch := make(chan struct{})
		db.seqWaiters[csn] = ch
		db.seqMu.Unlock()
		<-ch // closed by csn-1's publisher, after visibleCSN reaches csn-1
		db.seqMu.Lock()
	}
	db.visibleCSN.Store(csn)
	if ch, ok := db.seqWaiters[csn+1]; ok {
		delete(db.seqWaiters, csn+1)
		close(ch)
	}
	db.seqMu.Unlock()
}

// Close shuts the database down: new Begins are rejected with a handle
// poisoned by core.ErrShuttingDown, in-flight transactions are drained
// (Close blocks until each has committed or aborted), and the simulated
// log device is closed last, so no draining commit races the WAL
// teardown. Idempotent; concurrent Closes all block until the drain
// completes.
func (db *DB) Close() { db.closeOnce.Do(db.shutdown) }

func (db *DB) shutdown() {
	db.closing.Store(true)
	if db.gate != nil {
		// Wake every queued Begin with ErrShuttingDown before waiting
		// on the drain: queued waiters are not registered in-flight, so
		// without this they would hang forever (and with it, none can
		// slip past — a waiter granted concurrently with Close loses to
		// the closing flag above and releases its slot).
		db.gate.Close()
		close(db.admStop)
		<-db.admDone
	}
	for db.InFlightTxns() > 0 {
		<-db.drained
	}
	if db.ckptStop != nil {
		close(db.ckptStop)
		<-db.ckptDone
	}
	// Drain before Close: with async commit, acknowledged transactions
	// may still have records in the flush queue — a graceful shutdown
	// makes them durable instead of failing them.
	db.log.Drain()
	db.log.Close()
}

// WaitDurable blocks until the commit with sequence number csn is
// durable on the log device. It returns immediately for csn 0 (a
// read-only commit has nothing to persist) and when no log is attached
// (every commit is trivially "as durable as it will ever get"). With a
// broken device it returns the sticky error: the commit is visible but
// will not survive a crash.
func (db *DB) WaitDurable(csn uint64) error {
	if csn == 0 || !db.log.Enabled() {
		return nil
	}
	return db.log.WaitDurableCSN(csn)
}

// DurableSeq returns the newest CSN such that every acked commit at or
// below it is both visible and durable. Without a log that is simply
// the visible high-water mark; otherwise it is the log's acked-durable
// watermark capped by visibility. The cap matters in both directions: a
// sync commit is durable before it publishes (durable briefly leads
// visible), while an async commit publishes before its flush lands
// (visible leads durable — the durability lag CommitSeq − DurableSeq
// measures). Visible alone is never a safe answer while the log is
// enabled: a CSN published as an empty slot — a commit withdrawn from
// the flush queue at its deadline, or torn off by an enqueue failure —
// was never acknowledged and never reaches the device, so the visible
// mark can overshoot what recovery is able to find.
func (db *DB) DurableSeq() uint64 {
	visible := db.visibleCSN.Load()
	if !db.log.Enabled() {
		return visible
	}
	durable, _ := db.log.DurableWatermark()
	if durable < visible {
		return durable
	}
	return visible
}

// LogVars is the value the commands publish as the sicost_wal expvar:
// the durability-lag gauge (how far published commits run ahead of the
// device: 0 in sync mode once quiescent, the exposure window under
// async commit), the log's raw flush/sync counters with the
// group-commit gauge derived from them, the checkpoint gauges (count,
// cumulative and last sequencer pause) and
// the snapshot horizon (what version pruning waits for). See
// docs/OBSERVABILITY.md §9.
func (db *DB) LogVars() any {
	durable, commit := db.DurableSeq(), db.CommitSeq()
	stats := db.log.Stats()
	return map[string]any{
		"CommitSeq":      commit,
		"DurableSeq":     durable,
		"DurabilityLag":  commit - durable,
		"Stats":          stats,
		"CommitsPerSync": stats.CommitsPerSync(),
		"Checkpoint":     db.CheckpointStats(),
		"Horizon":        db.HorizonStats(),
	}
}

// LockAudit reports the lock table's outstanding grants and queued
// waiters. A quiescent database must report 0/0; the chaos harness's
// lock-leak invariant checks exactly that after a faulted run.
func (db *DB) LockAudit() (held, queued int) { return db.locks.Outstanding() }

// Faults returns the fault-injection registry the database was opened
// with (nil when fault injection is disabled).
func (db *DB) Faults() *faultinject.Registry { return db.faults }

// CreateTable declares a table. With a durable log attached the schema
// is logged as a DDL frame, so a log that has never been checkpointed
// still rebuilds its table definitions on recovery. The create and the
// frame's enqueue share a sequencer critical section, so a checkpoint
// embeds a table exactly when the table's DDL frame precedes its begin
// marker: both describe the same tables whichever retirement unlinks.
func (db *DB) CreateTable(schema *core.Schema) error {
	if !db.log.Persistent() {
		_, err := db.store.CreateTable(schema)
		return err
	}
	ddl := wal.Control(wal.EncodeSchema(schema))
	db.lockSeq()
	if _, err := db.store.CreateTable(schema); err != nil {
		db.seqMu.Unlock()
		return err
	}
	return db.logControl(ddl, db.seqMu.Unlock)
}

// logControl writes the control record rec (wal.Control) through the
// commit queue: it enqueues rec, calls unlock, then leads rec's flush as
// a sync committer leads its own and returns the verdict. unlock ends the
// caller's sequencer critical section, which puts a schema frame or begin
// marker between the commits allocated before and after it; it is nil
// for a checkpoint's rows and end marker, which need no place in the
// commit order. A failed control record bricks the log.
func (db *DB) logControl(rec *wal.Record, unlock func()) error {
	done, err := db.log.Enqueue(rec)
	if unlock != nil {
		unlock()
	}
	if err != nil {
		return err
	}
	db.log.Lead(rec, true)
	return <-done
}

// ckptBatch is how many rows one checkpoint rows frame carries.
const ckptBatch = 256

// Checkpoint writes the database as of one cut to the log, bounding
// recovery's replay cost: recovery restores the newest complete
// checkpoint and redoes only the commits after its cut. It requires a
// durable log device. The cut is taken like a commit's CSN: in one
// sequencer critical section it is the last CSN allocated, pinned in the
// snapshot horizon, and the begin marker is enqueued behind it, so the
// commit frames in front of the marker are those ≤ cut. No commit waits
// for a checkpoint; the rows are read as of the cut and streamed through
// the same queue, batch by batch, while commits go on, the pin keeping
// their versions from being pruned. Once complete, the segments in front
// of its begin marker are retired when Config.RetireSegments is set.
// Returns the cut (unchanged, and nothing written, when no commit landed
// since the previous checkpoint).
func (db *DB) Checkpoint() (uint64, error) {
	if !db.log.Persistent() {
		return 0, core.ErrWALClosed
	}
	db.ckptRunMu.Lock()
	defer db.ckptRunMu.Unlock()

	start := time.Now()
	db.lockSeq()
	cut := db.nextCSN
	if cut == db.ckptCut {
		db.seqMu.Unlock()
		return cut, nil // nothing committed since the previous checkpoint
	}
	// No horizon has passed the cut: the horizon never exceeds the
	// visible CSN, which never exceeds the last one allocated.
	if err := db.hz.pin(cut); err != nil {
		db.seqMu.Unlock()
		return 0, err
	}
	marker := wal.Control(wal.EncodeCkptBegin(&wal.CkptBegin{CSN: cut, Schemas: wal.Schemas(db.store)}))
	err := db.logControl(marker, func() {
		db.seqMu.Unlock()
		pause := time.Since(start).Nanoseconds()
		db.ckptPauseNS.Add(pause)
		db.lastPauseNS.Store(pause)
	})
	if err != nil {
		db.hz.unpin(cut)
		return 0, err
	}
	// Every record in front of the marker has its verdict: what is left
	// is their committers' stamping loops.
	visible := func() bool { return db.visibleCSN.Load() >= cut }
	for !db.log.Spin(visible) && !visible() {
		time.Sleep(20 * time.Microsecond)
	}
	bound, ckptBytes := marker.Segment, marker.Bytes
	if db.tracer.Enabled() {
		db.tracer.Emit(trace.Event{Kind: trace.EvCkptBegin, CSN: cut})
	}

	rows, n, err := db.streamCkptRows(cut)
	if err != nil {
		return 0, err
	}
	// The end marker's window is the checkpoint's last durability point:
	// only after its verdict may the segments in front of the begin
	// marker go.
	end := wal.Control(wal.EncodeCkptEnd(&wal.CkptEnd{CSN: cut, Rows: uint64(rows)}))
	if err := db.logControl(end, nil); err != nil {
		return 0, err
	}
	ckptBytes += n + end.Bytes

	db.ckptCut = cut
	db.ckpts.Add(1)
	if db.tracer.Enabled() {
		db.tracer.Emit(trace.Event{Kind: trace.EvCkptEnd, CSN: cut, Depth: rows, Bytes: ckptBytes})
	}
	if db.cfg.RetireSegments {
		if _, err := db.log.Retire(bound); err != nil {
			return cut, err
		}
	}
	return cut, nil
}

// streamCkptRows writes every live row as of cut to the log in
// ckpt-rows batches of ckptBatch, walking each table once (Table.Range)
// and reading each row as of the cut straight into the one reused
// batch. Each batch is a control record that it leads and takes the
// verdict of before it reads on, so one batch frame at most is in
// flight and every batch is rendered into one reused frame buffer.
// Versions with CSN ≤ cut are immutable once published, so commits
// stamping newer versions concurrently never perturb what it reads,
// and rows born after the cut resolve to nothing. The caller
// pinned cut in the snapshot horizon; streamCkptRows releases the pin
// once the last row is read, on every path (the batches are encoded as
// they fill, so nothing references the chains after that). It returns
// the rows and bytes appended.
func (db *DB) streamCkptRows(cut uint64) (rows, bytes int, err error) {
	defer db.hz.unpin(cut)
	batch := make([]wal.CkptRow, 0, ckptBatch)
	var enc []byte
	flush := func() {
		enc = wal.AppendCkptRows(enc[:0], &wal.CkptRows{CSN: cut, Rows: batch})
		rec := wal.Control(enc)
		err = db.logControl(rec, nil)
		bytes += rec.Bytes
		rows += len(batch)
		batch = batch[:0]
	}
	for _, name := range db.store.TableNames() {
		t, terr := db.store.Table(name)
		if terr != nil {
			continue
		}
		t.Range(func(key core.Value, row *storage.Row) bool {
			if v := row.CommittedAsOf(cut); v != nil && v.Rec != nil {
				batch = append(batch, wal.CkptRow{Table: name, Key: key, CSN: v.CSN(), Rec: v.Rec})
				if len(batch) == ckptBatch {
					flush()
				}
			}
			return err == nil
		})
		if err != nil {
			return rows, bytes, err
		}
	}
	if len(batch) > 0 {
		flush()
	}
	return rows, bytes, err
}

// ckptLoopInterval is the checkpoint scheduler's poll period.
const ckptLoopInterval = 5 * time.Millisecond

// ckptLoop is the log-growth checkpoint scheduler: whenever the device
// has accumulated Config.CheckpointLogBytes of appends since the last
// completed checkpoint, it takes one. Failures are left
// for the next tick (a bricked WAL fails fast until recovery).
func (db *DB) ckptLoop() {
	defer close(db.ckptDone)
	t := time.NewTicker(ckptLoopInterval)
	defer t.Stop()
	last := db.log.Stats().Bytes
	for {
		select {
		case <-db.ckptStop:
			return
		case <-t.C:
			if db.log.Broken() != nil {
				continue
			}
			if db.log.Stats().Bytes-last < db.cfg.CheckpointLogBytes {
				continue
			}
			if _, err := db.Checkpoint(); err != nil {
				continue
			}
			last = db.log.Stats().Bytes
		}
	}
}

// CheckpointStats reports the engine-side checkpoint counters; the
// WAL-side view (retired segments) lives in wal.Stats.
type CheckpointStats struct {
	// Links counts completed checkpoints.
	Links int64
	// PauseNS is the cumulative time checkpoints held the sequencer to
	// take their cut and enqueue its begin marker; LastPauseNS the most
	// recent hold.
	PauseNS     int64
	LastPauseNS int64
}

// CheckpointStats snapshots the checkpoint counters.
func (db *DB) CheckpointStats() CheckpointStats {
	return CheckpointStats{
		Links:       db.ckpts.Load(),
		PauseNS:     db.ckptPauseNS.Load(),
		LastPauseNS: db.lastPauseNS.Load(),
	}
}

// Mode returns the configured concurrency-control mode.
func (db *DB) Mode() core.CCMode { return db.cfg.Mode }

// Platform returns the configured platform profile.
func (db *DB) Platform() core.Platform { return db.cfg.Platform }

// Cost returns the active strategy cost model.
func (db *DB) Cost() CostModel { return db.cost }

// Machine exposes the simulated hardware (the workload driver registers
// its sessions on it).
func (db *DB) Machine() *simres.Machine { return db.machine }

// SetResources replaces the simulated hardware. The experiment harness
// loads the database on a free machine and installs the measured
// resource model afterwards; it must not be called while transactions
// are in flight.
func (db *DB) SetResources(cfg simres.Config) { db.machine = simres.New(cfg) }

// WAL exposes the simulated log device for stats and fault injection.
func (db *DB) WAL() *wal.WAL { return db.log }

// SetWaitHooks installs the lock table's wait/wake hooks (the zero value
// removes them): OnWait fires when a transaction blocks on a row lock
// (the FUW and 2PL wait paths), OnWake when a blocked transaction is
// resolved — granted (err == nil) or ejected because it aborted while
// queued. OnWake fires synchronously inside the operation that causes
// it (a commit, abort or failed statement of another transaction),
// before that operation returns, so a scripted scheduler
// (internal/detsim) can drive transactions through exact statement-level
// interleavings without wall-clock grace periods. The hooks run with
// lock-table mutexes held: they must be quick and must not call back
// into the database. Must not be called while transactions are in
// flight.
func (db *DB) SetWaitHooks(h storage.WaitHooks) { db.locks.SetHooks(h) }

// CommitSeq returns the current global commit sequence number (the
// newest published CSN).
func (db *DB) CommitSeq() uint64 { return db.visibleCSN.Load() }

// ContentionStats aggregates the engine's synchronization counters: the
// sharded lock table's per-stripe wait/deadlock statistics and the
// commit sequencer's publish waits. The workload driver reports the
// delta over a measurement interval alongside throughput.
type ContentionStats struct {
	Lock storage.LockStats
	// CommitPublishWaits counts commits that waited for an earlier CSN
	// to finish stamping before publishing their own.
	CommitPublishWaits uint64
}

// Delta returns s minus an earlier snapshot.
func (s ContentionStats) Delta(prev ContentionStats) ContentionStats {
	return ContentionStats{
		Lock:               s.Lock.Delta(prev.Lock),
		CommitPublishWaits: s.CommitPublishWaits - prev.CommitPublishWaits,
	}
}

// Contention snapshots the engine's contention counters.
func (db *DB) Contention() ContentionStats {
	return ContentionStats{
		Lock:               db.locks.Stats(),
		CommitPublishWaits: db.seqWaits.Load(),
	}
}

// Stats returns cumulative commit and abort counts. Every rollback is
// an abort here, voluntary ones (core.AbortNone) included — unlike
// AbortSnapshot.Total, which leaves those out.
func (db *DB) Stats() (commits, aborts uint64) {
	s := db.TxnMetrics()
	for _, n := range s.Aborts {
		aborts += n
	}
	return s.Commits, aborts
}

// SetTracer installs (or, with nil, removes) the lifecycle-event
// recorder in every emission layer (engine, lock table, WAL); with none
// installed each emission point is a pointer test. Must not be called
// while transactions are in flight; to pause and resume capture on a
// live database, keep the recorder installed and use its SetEnabled
// switch instead.
func (db *DB) SetTracer(r *trace.Recorder) {
	db.tracer = r
	db.locks.SetTracer(r)
	db.log.SetTracer(r)
}

// Tracer returns the installed lifecycle recorder (nil when tracing is
// not configured).
func (db *DB) Tracer() *trace.Recorder { return db.tracer }

// TxnMetrics snapshots the engine's transaction metrics: commit count,
// the abort taxonomy, and the lock-wait and commit-latency histograms.
// Snapshots from two points of a run diff with TxnSnapshot.Delta.
func (db *DB) TxnMetrics() metrics.TxnSnapshot {
	var s metrics.TxnSnapshot
	for i := range db.hz.slots {
		s = s.Merge(db.hz.slots[i].metrics.Snapshot())
	}
	s.LockWait = db.locks.WaitHistogram()
	return s
}

// SetDefaultTxDeadline stamps every future Begin with deadline = Begin
// time + d (0 disarms it; in-flight transactions keep the deadline they
// began with). The deadline is honoured in the admission queue, between
// statements, in lock waits (bounding them alongside LockWaitTimeout)
// and in the sync-commit WAL flush-group wait; expiry fails the
// transaction with core.ErrTxDeadline (classified AbortDeadline).
// Tx.SetDeadline overrides it per handle.
func (db *DB) SetDefaultTxDeadline(d time.Duration) { db.defaultDeadline.Store(int64(d)) }

// Begin starts a transaction. The returned Tx must be finished with
// Commit or Abort; it is not safe for concurrent use by multiple
// goroutines (like a SQL session). The handle is the caller's for good:
// it may be kept and read after it ends, and the engine never reuses it.
// A transaction that one call begins and ends goes through Txn instead.
func (db *DB) Begin() *Tx {
	// The begin fault fires before the transaction is registered, so an
	// injected panic here unwinds without leaving shutdown bookkeeping
	// behind.
	beginErr := db.faults.Fire(FaultBegin, faultinject.Ctx{})

	var deadline time.Time
	if d := time.Duration(db.defaultDeadline.Load()); d > 0 {
		deadline = time.Now().Add(d)
	}

	// The admission gate sits before shutdown registration: a queued
	// Begin holds no engine resources, and Close wakes the whole queue
	// with ErrShuttingDown before draining registered transactions.
	admitted := false
	if db.gate != nil {
		if aerr := db.gate.Acquire(deadline); aerr != nil {
			// Rejected handle: shed (ErrOverload), expired
			// (ErrTxDeadline) or shutdown. Every statement and the
			// commit return the error; Abort is a cheap cleanup.
			return &Tx{db: db, failedErr: aerr}
		}
		admitted = true
	}

	slot := db.slots.get()
	slot.open.Add(1)
	if db.closing.Load() {
		db.leave(slot)
		if admitted {
			db.gate.Release()
		}
		// Rejected handle: every statement and the commit return
		// ErrShuttingDown; Abort is a cheap no-op-ish cleanup.
		return &Tx{db: db, failedErr: core.ErrShuttingDown}
	}

	// Per-transaction base CPU (parse, plan, session round trip), plus
	// the commercial platform's per-session overhead at the current MPL.
	// Charged before the snapshot is taken, as in the real systems where
	// it precedes the first data access.
	db.machine.UseCPU(db.machine.TxnCost(0))

	// A handle Txn gave back on this processor, or a new one.
	tx, _ := db.handles.Get().(*Tx)
	if tx == nil {
		tx = new(Tx)
	}
	*tx = Tx{
		db:       db,
		id:       db.nextTxID.Add(1),
		reg:      true,
		admitted: admitted,
		deadline: deadline,
	}
	// The snapshot point is one atomic load: every CSN ≤ visibleCSN is
	// fully stamped (publishCSN advances in order, after stamping). It is
	// taken inside the horizon registry, so the horizon never passes a
	// snapshot somebody holds.
	db.hz.begin(tx, slot, &db.visibleCSN)
	start := tx.start
	if beginErr != nil {
		tx.failedErr = beginErr
	}
	if db.ssi != nil {
		db.ssi.begin(tx)
	}
	if db.tracer.Enabled() {
		db.tracer.Emit(trace.Event{Kind: trace.EvBegin, Tx: tx.id, CSN: start})
		db.tracer.Emit(trace.Event{Kind: trace.EvSnapshot, Tx: tx.id, CSN: start})
	}
	return tx
}

// Txn runs fn as one transaction: it begins one, passes fn the handle,
// and commits it when fn returns nil; otherwise, and while a panic out
// of fn or out of the commit unwinds, it aborts it. It returns fn's
// error or the commit's. The handle is the engine's: fn must neither
// end it nor keep it, nor anything that reaches it, past its return —
// on a normal return Txn zeroes the handle (ended, so a late use of it
// fails with core.ErrTxDone until it is reused) and keeps it for a
// later Begin on the same processor. A handle a panic unwinds past is
// never reused.
func (db *DB) Txn(fn func(*Tx) error) error {
	tx := db.Begin()
	returned := false
	defer func() {
		if !returned {
			tx.Abort()
		}
	}()
	err := fn(tx)
	if err != nil {
		tx.Abort()
	} else {
		err = tx.Commit()
	}
	returned = true
	*tx = Tx{done: true}
	db.handles.Put(tx)
	return err
}

// endTx retires a registered transaction from the shutdown drain.
// Called exactly once per registered handle, from Commit or Abort.
func (db *DB) endTx(tx *Tx) {
	if tx.reg {
		tx.reg = false
		if tx.admitted {
			tx.admitted = false
			db.gate.Release()
		}
		if db.hz.end(tx) {
			db.hz.advance(db.DurableSeq())
		}
		db.leave(tx.slot)
	}
}

// leave takes one handle off slot's open count and, while Close waits,
// wakes it to sum the counts again.
func (db *DB) leave(slot *txSlot) {
	slot.open.Add(-1)
	if db.closing.Load() {
		select {
		case db.drained <- struct{}{}:
		default:
		}
	}
}

// InFlightTxns returns the number of registered transactions that have
// begun and not yet committed or aborted. A quiescent database reports
// zero; the server chaos harness's leaked-transaction invariant checks
// exactly that after every drain.
func (db *DB) InFlightTxns() int64 {
	var n int64
	for i := range db.hz.slots {
		n += db.hz.slots[i].open.Load()
	}
	return n
}

// ScanLatest iterates the newest committed record of every row of the
// named table, in key order. It bypasses transactions and is intended
// for loaders, invariant verification and tests.
func (db *DB) ScanLatest(table string, fn func(key core.Value, rec core.Record) bool) error {
	t, err := db.store.Table(table)
	if err != nil {
		return err
	}
	for _, e := range sortedRows(t) {
		v := e.row.NewestCommitted()
		if v == nil || v.Rec == nil {
			continue
		}
		if !fn(e.key, v.Rec) {
			break
		}
	}
	return nil
}

// ScanAsOf iterates the newest record of every row of the named table
// whose commit CSN is at or below cut, walking version chains past
// newer commits — the state a recovery limited to the durable prefix
// [1, cut] rebuilds. The async crash-consistency audits use it to
// compute "published state restricted to acked-durable CSNs" from the
// live database, without replaying the log. Like ScanLatest it bypasses
// transactions; versions of in-flight transactions (CSN 0) are skipped.
//
// Version chains are pruned behind the snapshot horizon, so a cut the
// horizon has passed fails with core.ErrSnapshotTooOld rather than
// yielding rows the engine can no longer vouch for. The horizon never
// passes DurableSeq (nor, therefore, CommitSeq), and the scan pins its
// cut while it runs.
func (db *DB) ScanAsOf(table string, cut uint64, fn func(key core.Value, rec core.Record) bool) error {
	t, err := db.store.Table(table)
	if err != nil {
		return err
	}
	if err := db.hz.pin(cut); err != nil {
		return err
	}
	defer db.hz.unpin(cut)
	for _, e := range sortedRows(t) {
		v := e.row.CommittedAsOf(cut)
		if v == nil || v.Rec == nil {
			continue
		}
		if !fn(e.key, v.Rec) {
			break
		}
	}
	return nil
}

// keyedRow is one row anchor with its primary key.
type keyedRow struct {
	key core.Value
	row *storage.Row
}

// sortedRows returns every row anchor of t in key order: the scans'
// contract, which Table.Range, walking stripe by stripe, does not keep.
func sortedRows(t *storage.Table) []keyedRow {
	var rows []keyedRow
	t.Range(func(k core.Value, r *storage.Row) bool {
		rows = append(rows, keyedRow{k, r})
		return true
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i].key.Less(rows[j].key) })
	return rows
}
