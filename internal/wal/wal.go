// Package wal implements the write-ahead log of the engine, modelled on
// the paper's testbed: a dedicated log disk with the write cache
// disabled, so every commit of an updating transaction must wait for a
// real device write — amortized across concurrent committers by group
// commit.
//
// The log is layered. The latency of the device is simulated
// (Config.FsyncLatency), which is all the throughput experiments need:
// the device is a clock of serial syncs of exactly FsyncLatency each. A
// sync carries the records that had arrived when it started; one that
// arrives while a sync is in flight waits for the next. The testbed's
// commit delay is part of the clock: the committers a sync has just
// acknowledged are on their way back with their next commit, so the
// next sync starts when as many records as it acknowledged have arrived
// since, or one FsyncLatency after the device came free (the hold
// limit), whichever is first — closed-loop clients share a sync instead
// of taking turns. A record that finds the device idle for longer than
// the limit starts its sync at once, and a hold that keeps ending at
// the limit backs off (see syncStart). The flush loop computes each
// sync's deadline and waits for it with sleepUntil — nanosleep(2) on
// Linux, because the runtime's own timers round a 2.5 ms sleep up to
// 3.2 ms — so the log wait is the one the platform profile states,
// which the paper's result, a ratio of log waits to CPU work, depends
// on.
//
// Durability is real when a LogDevice is attached (Config.Device): each
// commit record — row after-images plus CSN — is encoded into a
// CRC32-framed binary frame (codec.go) and the flush loop covers every
// record of a window with one append and one Sync (group commit; with no
// simulated latency a window is every record queued during the previous
// sync). As on the paper's PostgreSQL there is no log-writer hop on a
// commit: the committer that needs its record durable runs the flush
// loop itself and flushes everybody's (Lead); a background goroutine
// runs it only for records nobody is waiting to lead. Schema frames and
// every frame of a checkpoint ride the queue too (Control), so every
// byte reaches the device through the flush loop, each window's append
// followed by its sync. Recover (recover.go) classifies a device image
// back into the newest complete checkpoint + redo work with torn-tail
// truncation. The one device is the wal.000N segmented log
// (segment.go). Read-only transactions never touch the log, which is
// the mechanism behind the paper's §IV-D observation that
// strategies turning the read-only Balance program into an updater pay
// ~20% at MPL=1 (5/5 instead of 4/5 of transactions must wait for the
// disk).
package wal

import (
	"hash/crc32"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"sicost/internal/core"
	"sicost/internal/faultinject"
	"sicost/internal/trace"
)

// Fault-point names of the log device.
const (
	// FaultCommit fires at the head of Commit, before the record is
	// enqueued (a connection to the log that dies before the write).
	// It fires even when the device is disabled, so chaos runs against
	// latency-free test configurations still exercise commit-path
	// failures. The engine fires it before CSN allocation, so an
	// ActPanic here cannot wedge the sequencer.
	FaultCommit = "wal/commit"
	// FaultFlush fires once per flush window, before any byte of it
	// reaches the device; an injected error fails every commit record in
	// the window without persisting it and without bricking (later
	// windows still flush). An ActPanic spec here models the process
	// dying mid-write: unsynced appends are lost with the page cache, a
	// torn prefix of the window's first frame reaches the platter (so
	// nothing unacknowledged becomes durable), and the WAL bricks itself
	// — every later commit fails until recovery rebuilds the engine.
	FaultFlush = "wal/flush"
	// FaultSync fires once per flush window, after its append and
	// before the device Sync. An injected error is a failed
	// fsync: durability of the whole window is unknown, so the WAL
	// bricks (the fsyncgate discipline). An ActPanic models power dying
	// between append and sync: every unsynced append vanishes
	// with the page cache and nothing in the window is acknowledged.
	FaultSync = "wal/sync"
	// FaultCkptRows fires once per flush window that carries a
	// checkpoint's rows batch, after FaultFlush and before any byte of the
	// window reaches the device. An injected error fails the window and,
	// as any failed control record does, bricks the WAL. An ActPanic
	// models the process dying mid-checkpoint: a torn prefix of the
	// window's first frame may reach the platter, the WAL bricks, the
	// window's commits are not acknowledged — and recovery must discard
	// the incomplete checkpoint, falling back to the previous complete
	// one.
	FaultCkptRows = "wal/ckpt-rows"
)

// Config parameterizes the log device.
type Config struct {
	// FsyncLatency is the time one simulated device sync takes, exactly:
	// syncs are serial, and a commit record is acknowledged no earlier
	// than its arrival plus FsyncLatency. With no Device attached, zero
	// disables the log entirely (commits return immediately), which unit
	// tests use.
	FsyncLatency time.Duration
	// MaxBatch caps the number of commit records made durable by one
	// device sync; 0 means unbounded (pure group commit: every record
	// that arrives during a sync shares the next one). The group-commit
	// ablation sets 1 — one fsync per commit.
	MaxBatch int
	// Device, when non-nil, is the durable medium: every flush encodes
	// its batch and appends the frames to the device before
	// acknowledging. Nil keeps the historical latency-only simulation.
	Device LogDevice
}

// Scaled returns the config with FsyncLatency multiplied by f.
func (c Config) Scaled(f float64) Config {
	c.FsyncLatency = time.Duration(float64(c.FsyncLatency) * f)
	return c
}

// Record is one commit log record: the transaction's identity, its
// commit sequence number, and the after-image of every row it wrote.
// With a device attached the record is encoded and persisted; without
// one only Bytes is accounted, preserving the latency-only simulation.
type Record struct {
	TxID uint64
	CSN  uint64
	// Rows are the committed after-images (nil Rec = tombstone),
	// in-transaction write order.
	Rows []RowImage
	// Bytes is the accounted payload size. Callers may pre-fill an
	// estimate for latency-only mode; with a device attached Commit
	// overwrites it with the real encoded frame size.
	Bytes int
	// Async marks a record whose committer did not wait for durability
	// (the commit is already published). A failure resolving an async
	// record cannot be rolled back by aborting the transaction, so it
	// bricks the WAL instead.
	Async bool
	// Bulk marks the commit of a bulk load (engine.DB.BulkInsert). Like a
	// control record it is written and synced on the device but not held
	// to a simulated sync (claimWindow): the clock times the commits of
	// the measured run, not the load before it.
	Bulk bool

	// Segment is where appends were landing when the flush loop was about
	// to write a control record's window: the frame lies in it or later.
	Segment int
	// control marks a record made by Control.
	control bool
	// enc is the record's frame: Encode renders it, into the buffer of
	// the frame before when that is large enough, and Enqueue fills in
	// the CSN and the checksum.
	enc []byte
	// done receives the record's verdict. Enqueue makes it once and keeps
	// it, so a committer that received the verdict (or withdrew the
	// record) can enqueue the same record again.
	done chan error
	// arrived is when Enqueue queued the record, stamped only under a
	// simulated sync latency: the device clock decides which sync
	// carries a record by it.
	arrived time.Time
}

// Stats aggregates device activity; used by tests and by the
// group-commit ablation experiment. Only flush windows whose Sync
// succeeded count toward Syncs/Records (their commits)/Bytes; windows
// that failed (injected error, injected crash, device error, or a failed
// Sync) count in FailedFlushes and contribute nothing else.
type Stats struct {
	// Syncs counts flush windows appended and made durable — every
	// durability point the log asked the device for, a window of a
	// checkpoint's frames included — not fsync calls: the file segments
	// write through and fsync only after a truncation. LedFlushes counts
	// those of them that a committer (or a checkpoint or CreateTable) ran
	// on its own goroutine (see Lead; the rest ran on the background
	// goroutine).
	Syncs      int64
	LedFlushes int64
	Records    int64
	Bytes      int64
	// FailedFlushes counts flush windows that failed; their records
	// were rejected, not acknowledged.
	FailedFlushes int64
	// RetiredSegments counts sealed segments unlinked by Retire because
	// a checkpoint covers them.
	RetiredSegments int64
	// Holds counts simulated syncs whose start was held back for the
	// committers the previous sync acknowledged (see syncStart); HoldHits
	// counts those that started because that many records had arrived,
	// the rest ran into the hold limit; HeldNanos is the total time syncs
	// were held.
	Holds     int64
	HoldHits  int64
	HeldNanos int64
}

// CommitsPerSync returns the mean number of commit records made durable
// per device sync — the group-commit gauge.
func (s Stats) CommitsPerSync() float64 {
	if s.Syncs == 0 {
		return 0
	}
	return float64(s.Records) / float64(s.Syncs)
}

// WAL is the group-commit log. The zero value is not usable; call New.
// Its fields are laid out by how commits use them (DESIGN.md, "Fields
// written per transaction"): what every commit reads and nobody writes
// after New comes first (walSetup), and each group that flush windows or
// commits write starts a line of its own, so a committer reading its
// configuration on one processor does not pull the line a flush on the
// other is writing. WAL is over 512 bytes, which the allocator's size
// classes place on a line boundary.
type WAL struct {
	walSetup
	_ [cacheLine - unsafe.Sizeof(walSetup{})%cacheLine]byte

	// lastWindow is how long a flush window's append and sync took, in
	// nanoseconds, kept only where spin is not zero: of the windows
	// flushWindow times, the last one that took longer than spin when the
	// one before it did not, or the other way round. Spin polls only
	// while it is under spin. Any window may write it.
	lastWindow atomic.Int64
	_          [cacheLine - unsafe.Sizeof(atomic.Int64{})]byte

	// devMu is held by a flush window's device write, from its first
	// fault point to its sync, and by Retire, the one device user beside
	// the flush loop (the loop's windows are serial under leadMu): a
	// retirement, and the page cache a crash in it drops, never lands
	// between a window's append and its sync, where the window would be
	// acknowledged over bytes it lost.
	devMu sync.Mutex
	_     [cacheLine - unsafe.Sizeof(sync.Mutex{})]byte

	// leadMu is held by whoever runs the flush loop — a committer leading
	// its own record out (Lead) or the background goroutine — and is what
	// the one committer waiting to lead next waits for: it polls for the
	// mutex first (Spin), because a sync.Mutex spins for well under the
	// microsecond or more a bare device's window takes, and then blocks.
	// It is locked before mu, except where mu's holder knows it to be free
	// (flusher is false).
	leadMu sync.Mutex
	// window is the records the flush loop is flushing, moved off the
	// queue by takeWindow, and windows counts the windows flushed; they
	// belong to whoever holds leadMu.
	window  []*Record
	windows uint64
	_       [cacheLine - unsafe.Sizeof(sync.Mutex{}) - unsafe.Sizeof([]*Record(nil)) - 8]byte

	mu      sync.Mutex
	idle    sync.Cond // broadcast when the flush loop exits
	durable sync.Cond // broadcast when the durability watermark moves or the WAL dies
	pending []*Record
	// flusher: a flush loop is running, or the heir is about to run it;
	// while it is false leadMu is free and nobody waits for it. heir is
	// the queued record whose committer is blocked on leadMu to run the
	// loop when its present owner leaves (at most one; it clears heir
	// itself once it has the mutex).
	flusher bool
	heir    *Record
	closed  bool
	stats   Stats
	// The simulated device's clock (see claimAt and syncStart). freeAt
	// is when it finished its last sync: the earliest instant the next
	// one may start. cohort is how many committers that sync acknowledged
	// and sent off to their next transaction (async records have nobody
	// waiting). holdBackoff grows with every hold that ended at its limit
	// without them and shrinks with every one they ended, and holdSkip is
	// how many holds are still to pass up after the last miss. quietAt
	// is when Drain or Close last promised that no Enqueue follows; it
	// binds until a record arrives after it. held is set while the flusher
	// sleeps to a hold's limit.
	freeAt      time.Time
	cohort      int
	holdBackoff int
	holdSkip    int
	quietAt     time.Time
	held        bool

	// Durability watermark. The engine enqueues commit records in CSN
	// order (allocation and enqueue share the sequencer's critical
	// section) and the flush loop resolves them in queue order, so
	// durableCSN — the highest CSN acknowledged durable — only ever
	// advances, and everything at or below it is durable.
	// outstandingRecs counts enqueued, unresolved records carrying a
	// CSN; zero means the log has no durability debt.
	durableCSN      uint64
	outstandingRecs int
}

// walSetup is the part of WAL that New sets up and every commit reads.
type walSetup struct {
	cfg    Config
	faults *faultinject.Registry
	tracer *trace.Recorder
	// spin is how long Spin polls; see spinBudget. committers, when set
	// (SetCommitters), counts the transactions open against the log, and
	// Spin polls only while they are no more than procs, the processors
	// there were at New.
	spin       time.Duration
	committers func() int64
	procs      int64
	// broken is the sticky error of a device that died (crash or IO
	// error; recovery required), set once. It is atomic, so the flush
	// loop and writeWindow check it without mu; it is set before the
	// broadcast on durable that WaitDurableCSN's waiters wake to.
	broken atomic.Pointer[error]
}

// cacheLine is the line size the layout of WAL assumes.
const cacheLine = 64

// New creates a WAL. With no device and zero FsyncLatency the log is
// disabled and Commit returns immediately.
func New(cfg Config) *WAL {
	w := &WAL{walSetup: walSetup{cfg: cfg, spin: spinBudget(cfg), procs: int64(runtime.GOMAXPROCS(0))}}
	w.idle.L = &w.mu
	w.durable.L = &w.mu
	return w
}

// spinFor bounds a committer's poll for another committer. Where the
// device is fast every such wait is one flush window (its append and
// sync take about a microsecond on tmpfs) or one stamping loop; parking
// and being woken costs 0.1–1 ms on a virtual machine, and a sync.Mutex
// waiter that waits longer than a millisecond puts the mutex into
// starvation mode, where every Unlock hands the processor to the waiter.
// 50 µs covers the waits, and a poll that runs out has cost at most half
// of the cheapest park. A window that takes longer than spinFor (a
// disk's write-through write) turns the poll off until a window is fast
// again (see Spin).
const spinFor = 50 * time.Microsecond

// timeEvery is how often a flush window on a fast device is timed.
const timeEvery = 16

// spinBudget is how long Spin polls on a log configured by cfg: spinFor
// with a device and no simulated latency, and nothing otherwise. Under a
// simulated latency every wait is a sync long; with no device no commit
// waits for the log, and what runs that way (the engine without a log,
// the simulated platforms of the paper's figures) keeps the waits it was
// measured with; and on one processor the committer waited for needs
// the processor the poller would hold.
func spinBudget(cfg Config) time.Duration {
	if cfg.Device == nil || cfg.FsyncLatency > 0 || runtime.GOMAXPROCS(0) == 1 {
		return 0
	}
	return spinFor
}

// Spin is the first half of every short wait between committers (the
// heir's for the flush loop, a follower's for its verdict, and in the
// engine the sequencer's mutex and a predecessor's publication): it
// polls cond on the caller's processor until cond holds or the budget
// (spinBudget) is spent, and reports whether cond held. Between rounds
// of 64 polls it yields the processor, so that a committer a wake-up
// queued behind the poller — often the one it waits for — runs on it.
// A caller whose cond did not hold goes on to its blocking wait. Spin
// returns false without calling cond, and the wait is its blocking half
// alone, when there is no budget, and when the last flush window's
// append and sync took longer than the budget (the waits are paced by
// the device, and a poll would mostly run out). When more transactions
// are open than there are processors (SetCommitters) it looks at cond
// once and does not poll: a poller would then hold a processor that a
// runnable committer, often the one it waits for, could have had. The
// count is read only once that first look has failed: most waits have
// ended by the time they begin, and the count is the sum of lines that
// the committers on the other processors write.
func (w *WAL) Spin(cond func() bool) bool {
	if w.spin == 0 || w.lastWindow.Load() > int64(w.spin) {
		return false
	}
	if cond() {
		return true
	}
	if w.committers != nil && w.committers() > w.procs {
		return false
	}
	// The clock is read only once a round of polls has failed: most
	// waits end inside the first, and a clock read costs as much as many
	// polls on a virtual machine.
	var start time.Time
	for {
		for range 64 {
			if cond() {
				return true
			}
		}
		if start.IsZero() {
			start = time.Now()
		} else if time.Since(start) > w.spin {
			return false
		}
		runtime.Gosched()
	}
}

// SetCommitters gives the log the count of transactions open against it,
// which Spin reads (nil: not known, as for a log used alone). Call before
// commits are in flight.
func (w *WAL) SetCommitters(open func() int64) { w.committers = open }

// SetFaults installs the fault registry consulted by the FaultCommit,
// FaultFlush, FaultSync and FaultCkptRows points (nil disables),
// propagating it to the device's own points (rotation, retirement).
// Call before commits are in flight.
func (w *WAL) SetFaults(r *faultinject.Registry) {
	w.faults = r
	if w.cfg.Device != nil {
		w.cfg.Device.SetFaults(r)
	}
}

// SetTracer installs the lifecycle-event recorder for EvWALCommit and
// EvWALFlush (nil disables). Call before commits are in flight.
func (w *WAL) SetTracer(r *trace.Recorder) { w.tracer = r }

// CommitFault fires the wal/commit fault point on behalf of tx. The
// engine calls it before CSN allocation so an ActPanic here unwinds
// with no sequencer state to clean up.
func (w *WAL) CommitFault(tx uint64) error {
	return w.faults.Fire(FaultCommit, faultinject.Ctx{Tx: tx})
}

// Commit appends rec to the log and blocks until it is durable (the
// device sync covering its flush window completed). It returns
// core.ErrWALClosed if the device shuts down first, the injected fault
// if one fired, or the sticky crash error once a flush has torn the
// device.
func (w *WAL) Commit(rec *Record) error {
	if err := w.CommitFault(rec.TxID); err != nil {
		return err
	}
	w.Encode(rec)
	done, err := w.Enqueue(rec)
	if err != nil {
		return err
	}
	if done == nil {
		return nil
	}
	w.Lead(rec, true)
	return <-done
}

// Encode renders rec's commit frame — everything but the CSN and the
// checksum over it, which Enqueue fills in — and sets rec.Bytes to the
// frame's size. The engine calls it before it enters the sequencer, so
// the CSN-allocation critical section copies no row image. A record
// enqueued before keeps its frame's buffer and is encoded into it when
// it fits. No-op without a device.
func (w *WAL) Encode(rec *Record) {
	if w.cfg.Device != nil {
		rec.enc = encodeCommit(rec.enc, &CommitFrame{TxID: rec.TxID, Rows: rec.Rows})
		rec.Bytes = len(rec.enc)
	}
}

// Control returns a record carrying enc, a sealed schema frame or a
// checkpoint's begin marker, rows batch or end marker, through the queue.
// Enqueued in the sequencer's critical section it lands between the
// commits allocated before and after it; a rows batch or end marker,
// which need no place in the commit order, is enqueued anywhere after
// its begin marker has its verdict. It counts in no commit statistic
// and in no hold's cohort, and its failure bricks the WAL (the table or checkpoint
// is already in memory, and a half-written checkpoint whose device state
// is unknown cannot be reasoned about frame by frame).
func Control(enc []byte) *Record {
	return &Record{enc: enc, Bytes: len(enc), control: true}
}

// Enqueue appends rec to the flush queue without waiting for
// durability. It returns a buffered channel that receives exactly one
// verdict when the record's flush resolves, or (nil, nil) when the log
// is disabled (the record is trivially "durable"), or a non-nil error
// when the log is closed or broken and nothing was enqueued. With a
// device attached rec must have been through Encode since its contents
// last changed: Enqueue only seals the frame. The channel is the
// record's own: a record may be enqueued again — with its
// contents renewed — only once its committer has received that verdict,
// or Withdraw has returned true for it, or Enqueue has failed.
//
// A record whose committer is gone (Async) gets the background flush
// loop. A sync record's committer follows up with Lead, which runs the
// loop on its own goroutine: until then — or until Drain — a sync record
// with no loop running just sits in the queue.
//
// The engine calls Enqueue inside the CSN-allocation critical section,
// so queue order equals CSN order: the durable part of the log is
// always a CSN prefix, which is what makes the durability watermark
// (DurableWatermark, WaitDurableCSN) and async commit's
// lose-only-the-tail recovery guarantee meaningful.
func (w *WAL) Enqueue(rec *Record) (<-chan error, error) {
	if w.cfg.Device != nil && !rec.control {
		sealCommit(rec.enc, rec.CSN)
	}
	if w.tracer.Enabled() && !rec.control {
		w.tracer.Emit(trace.Event{Kind: trace.EvWALCommit, Tx: rec.TxID, Bytes: rec.Bytes})
	}
	if !w.Enabled() {
		return nil, nil
	}
	if rec.done == nil {
		rec.done = make(chan error, 1)
	}

	w.lock()
	if w.closed {
		w.mu.Unlock()
		return nil, core.ErrWALClosed
	}
	if err := w.Broken(); err != nil {
		w.mu.Unlock()
		return nil, err
	}
	if rec.CSN != 0 {
		w.outstandingRecs++
	}
	if w.cfg.FsyncLatency > 0 {
		// Stamped under mu, so pending is ordered by arrival.
		rec.arrived = time.Now()
	}
	w.pending = append(w.pending, rec)
	if rec.Async && !w.flusher {
		w.startFlusher()
	}
	w.mu.Unlock()

	return rec.done, nil
}

// lock takes mu for a committer or a flush loop. Its holders stay for a
// queue append, a window's claim or its settle, so the caller polls for
// it first (Spin), as the engine does for its sequencer: a waiter that
// parks is woken late, and on a virtual machine its processor may go
// idle meanwhile.
func (w *WAL) lock() {
	if !w.Spin(w.mu.TryLock) {
		w.mu.Lock()
	}
}

// startFlusher starts the background flush loop; the caller holds mu and
// no loop is running (so leadMu is free).
func (w *WAL) startFlusher() {
	w.flusher = true
	w.leadMu.Lock()
	go w.background()
}

// background runs the flush loop on a goroutine of its own, for records
// nobody is waiting to lead; leadMu is the loop's already.
func (w *WAL) background() {
	w.mu.Lock()
	w.flushLoop(nil)
}

// Lead is the second half of a sync commit: the committer of rec, which
// Enqueue queued, flushes on its own goroutine instead of handing the
// record to another one and parking — the commit path of the paper's
// PostgreSQL, where the backend that needs its commit record durable
// writes the log itself and whoever writes, writes everybody's. With no
// flush loop running the caller runs it: it claims every record queued,
// its own among them, appends, syncs, resolves them, and returns as soon
// as its own record has a verdict. With a loop running, a caller that
// may wait becomes the heir — it waits for leadMu, polling before it
// blocks (Spin), and runs the loop next — unless there is an heir
// already. Every other caller returns at
// once; its record is flushed by the loop's owner, the heir, or the
// background goroutine an owner starts when it leaves records behind
// that nobody is waiting to lead. wait is false for a committer that
// must be able to give up (a transaction deadline): it never blocks
// here without flushing, and a record the loop has not claimed can
// still be withdrawn. A caller that finds no loop running claims its
// first window in the same mu section that makes it the flusher.
//
// Lead consumes no verdict: the caller receives from the channel Enqueue
// returned.
func (w *WAL) Lead(rec *Record, wait bool) {
	w.lock()
	running := w.flusher
	if running && (w.heir != nil || !wait) || !slices.Contains(w.pending, rec) {
		w.mu.Unlock()
		return
	}
	if running {
		w.heir = rec
		w.mu.Unlock()
		if !w.Spin(w.leadMu.TryLock) {
			w.leadMu.Lock()
		}
		w.lock()
	} else {
		w.flusher = true
		w.leadMu.Lock()
	}
	w.flushLoop(rec)
}

// Withdraw removes rec from the flush queue if — and only if — no flush
// window has claimed it yet. It reports whether the record was
// withdrawn: true means the record will never reach the device and its
// done channel will never resolve, so the committer may abort cleanly
// (the engine publishes the allocated CSN as an empty slot, the same
// discipline as an enqueue failure — the durability watermark's prefix
// property is unaffected because an empty slot has nothing to lose).
// False means the record is in flight or already resolved: the commit
// can no longer be torn away from the log, and the caller must wait for
// the verdict and complete the commit. This is what bounds a sync
// commit's flush-group wait by the transaction deadline without ever
// leaving a commit half-published.
func (w *WAL) Withdraw(rec *Record) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, r := range w.pending {
		if r != rec {
			continue
		}
		w.pending = append(w.pending[:i], w.pending[i+1:]...)
		if rec.CSN != 0 {
			w.outstandingRecs--
		}
		// Waiters on the watermark may be blocked behind this record's
		// outstanding count.
		w.durable.Broadcast()
		return true
	}
	return false
}

// flushLoop drains pending records window by window. Exactly one loop
// runs at a time — its caller holds leadMu and has set flusher — on the
// goroutine of the committer of own (Lead), or on a background goroutine
// (own is nil). The background loop runs until the queue is empty or an
// heir is waiting to take over, so an idle log costs nothing; a
// committer's until own has its verdict. The caller holds mu and
// flushLoop releases it. A pass holds mu once, from settling a window
// (settle) through claiming the next one or leaving; the device write
// and the wait for a simulated sync run outside it.
func (w *WAL) flushLoop(own *Record) {
	for !w.leave(own) {
		window, deadline := w.claimWindow()
		w.mu.Unlock()
		// The device sync occupies the log for the configured latency,
		// once per window: every record in it shares the wait — group
		// commit.
		if !deadline.IsZero() {
			sleepUntil(deadline)
		}
		if window == nil {
			// The sync is being held: look again at the hold's limit.
			w.mu.Lock()
			continue
		}
		bytes, err := w.flushWindow(window)
		w.lock()
		w.settle(window, bytes, err, own != nil)
	}
	w.mu.Unlock()
}

// leave reports whether the flush loop of own's committer (nil: the
// background goroutine) is done, and if so hands the loop on: to the
// heir, to the background goroutine when records are left that nobody is
// coming to lead, or to nobody. The caller holds mu.
func (w *WAL) leave(own *Record) bool {
	// A sync that was being held is this loop's to start even if Close
	// came meanwhile: without the hold it would have been in flight.
	leave := len(w.pending) == 0 || w.closed && !w.held
	if own == nil {
		leave = leave || w.heir != nil
	} else {
		if w.heir == own {
			w.heir = nil
		}
		// Claimed by a window of this loop or of its predecessor's,
		// all of them resolved by now (or withdrawn, or failed by Close).
		leave = leave || !slices.Contains(w.pending, own)
	}
	if !leave {
		return false
	}
	w.held = false
	switch {
	case w.heir != nil:
		// Blocked on leadMu, or about to be: the loop is the heir's.
		w.leadMu.Unlock()
	case len(w.pending) > 0 && !w.closed:
		// Records whose committers are not coming to lead them
		// (async, or waiting under a deadline): the background
		// goroutine takes the loop over, leadMu with it.
		go w.background()
	default:
		w.flusher = false
		w.leadMu.Unlock()
		// Closing drains remaining waiters in Close; wake it now
		// that no flush is in flight.
		w.idle.Broadcast()
	}
	return true
}

// claimWindow takes the next window off the queue and returns it with
// the instant its simulated sync completes; the caller holds mu. Without
// a simulated latency (a bare device, or none) there is no clock and
// nothing to wait for: a window is everything pending, the records that
// queued up during the previous window's real sync. A bricked WAL claims
// the same way: the records still queued fail at once with the sticky
// cause, not one sync period apart. So do the unclocked records at the
// head of the queue: the clock times the commit log, and a schema frame,
// a checkpoint's frames or a bulk load's commits that no other commit
// rides with are written and synced on the device, not held to a
// simulated sync (a checkpoint streams hundreds of rows batches, and one
// sync each made it take seconds). Either way MaxBatch caps the window.
func (w *WAL) claimWindow() (window []*Record, deadline time.Time) {
	clocked := w.cfg.FsyncLatency > 0 && w.Broken() == nil
	if clocked && w.pending[0].clocked() {
		return w.claimAt(time.Now())
	}
	n := len(w.pending)
	if clocked {
		if i := slices.IndexFunc(w.pending, (*Record).clocked); i >= 0 {
			n = i
		}
	}
	w.held = false
	return w.takeWindow(n), time.Time{}
}

// clocked reports whether r waits for a simulated sync: a commit that
// is no bulk load's.
func (r *Record) clocked() bool { return !r.control && !r.Bulk }

// takeWindow moves the first n queued records, MaxBatch at most, off the
// queue into the flush loop's window. Queue and window each keep their
// array, so a record is queued and flushed without an allocation.
func (w *WAL) takeWindow(n int) []*Record {
	if w.cfg.MaxBatch > 0 {
		n = min(n, w.cfg.MaxBatch)
	}
	w.window = append(w.window[:0], w.pending[:n]...)
	rest := copy(w.pending, w.pending[n:])
	clear(w.pending[rest:])
	w.pending = w.pending[:rest]
	return w.window
}

// claimAt is claimWindow under a simulated sync latency, looking at the
// queue at the instant now. A nil window means the sync is being held
// and now is too early to tell when it starts: the deadline is then the
// hold's limit, when the caller looks again.
//
// The simulated device is a clock, not a sleep. Its syncs are serial
// and take exactly FsyncLatency each: a sync starts at the instant
// syncStart reads off the queue's arrival stamps, carries the records
// that had arrived by then, and completes FsyncLatency later. A record
// that arrives while a sync is in flight waits for the next one,
// however late the flusher itself woke, and the flusher's lateness in
// one window never delays the next.
func (w *WAL) claimAt(now time.Time) (window []*Record, deadline time.Time) {
	start, ok := w.syncStart(now)
	if w.held = !ok; w.held {
		return nil, start
	}
	window = w.takeWindow(sort.Search(len(w.pending), func(i int) bool { return w.pending[i].arrived.After(start) }))
	w.cohort = 0
	for _, r := range window {
		if !r.Async && !r.control {
			w.cohort++
		}
	}
	w.freeAt = start.Add(w.cfg.FsyncLatency)
	return window, w.freeAt
}

// maxHoldBackoff caps the back-off of syncStart: where the committers
// never return inside the limit, one sync in maxHoldBackoff − 1 is held
// in vain.
const maxHoldBackoff = 64

// syncStart returns the instant the next simulated sync starts, or
// ok=false and the instant to look again when that cannot be told yet.
// It is a function of the queue's arrival stamps, the clock's state and
// now; the caller holds mu and the queue is not empty.
//
// Without a hold the sync starts as soon as the device is free and a
// record is waiting: max(freeAt, first arrival). The hold is the
// testbed's commit delay. The sync that completed at freeAt sent cohort
// committers back to their clients, and they are what is coming: the
// next sync starts when cohort further records have arrived since freeAt
// (records already queued by then ride along; MaxBatch of them fill the
// window and end the hold too), or at the hold limit, freeAt +
// FsyncLatency, whichever is first: a sync is never held for longer than
// it takes. Nothing is held when the first record finds the device idle
// for longer than the limit, when MaxBatch is 1, or when the cohort was
// back before the device came free — one client, whose own return is
// the arrival that starts its sync, never waits. The flusher sleeps to
// the limit and reads off afterwards when the cohort was complete; the
// limit is no longer than a sync, so that sync's deadline is still
// ahead.
//
// A hold that ends at its limit delayed everything queued for nobody: a
// miss. Misses among hits are the price of holding; misses that keep
// coming mean the committers take longer than the limit to return, or
// that the arrivals ending the holds are not the committers they wait
// for, and the hold backs off: a miss doubles holdBackoff and adds two,
// a hit takes one off, and after a miss the next holdBackoff − 2 syncs
// that would be held start without delay instead. So one miss among
// hits passes up nothing, hits and misses in turns soon pass up
// maxHoldBackoff − 2 holds for each one tried, and committers that
// speed up are found again. Drain and Close promise that nobody is
// coming: a hold ends the instant they were called, and is neither.
func (w *WAL) syncStart(now time.Time) (start time.Time, ok bool) {
	start = w.pending[0].arrived
	if w.freeAt.After(start) {
		start = w.freeAt
	}
	limit := w.freeAt.Add(w.cfg.FsyncLatency)
	quiet := !w.quietAt.Before(w.pending[len(w.pending)-1].arrived) && w.quietAt.Before(limit)
	if quiet {
		limit = w.quietAt
	}
	if w.cohort == 0 || w.cfg.MaxBatch == 1 || !start.Before(limit) {
		return start, true
	}
	// The record whose arrival ends the hold is the cohort-th after
	// freeAt, or the one that fills the window.
	last := sort.Search(len(w.pending), func(i int) bool { return w.pending[i].arrived.After(w.freeAt) }) + w.cohort
	if w.cfg.MaxBatch > 0 {
		last = min(last, w.cfg.MaxBatch)
	}
	var end time.Time // when that record arrived; zero: not yet
	if len(w.pending) >= last {
		end = w.pending[last-1].arrived
	}
	if !end.IsZero() && !end.After(start) {
		return start, true
	}
	if w.holdSkip > 0 {
		w.holdSkip--
		return start, true
	}
	switch {
	case !end.IsZero() && !end.After(limit):
		w.stats.HoldHits++
		w.holdBackoff = max(0, w.holdBackoff-1)
	case now.Before(limit):
		return limit, false
	default:
		end = limit
		if !quiet {
			w.holdBackoff = min(2*w.holdBackoff+2, maxHoldBackoff)
			w.holdSkip = w.holdBackoff - 2
		}
	}
	w.stats.Holds++
	w.stats.HeldNanos += int64(end.Sub(start))
	return end, true
}

// flushWindow makes one window durable: one device append of every
// record's frame, one Sync. An injected FaultFlush error rejects the
// window before any byte reaches the device and leaves the WAL healthy;
// a crash (injected panic) loses the unsynced appends, leaves at most a
// torn fragment, and bricks the WAL, as does any device error or failed
// sync. Either the whole window is acknowledged or none of it is: err is
// the window's verdict, bytes its accounted size. The caller does not
// hold mu; settle delivers the verdict.
func (w *WAL) flushWindow(window []*Record) (bytes int, err error) {
	for _, r := range window {
		if r.control {
			r.Segment = w.cfg.Device.CurrentSegment()
		}
	}
	frames, bytes := windowFrames(window)
	// Timed while the device is slow, and one window in timeEvery while
	// it is fast: a clock read costs tens of nanoseconds on a virtual
	// machine, and a fast device that turns slow is noticed a few windows
	// later.
	budget := int64(w.spin)
	w.windows++
	timed := budget > 0 && (w.lastWindow.Load() > budget || w.windows%timeEvery == 1)
	var start time.Time
	if timed {
		start = time.Now()
	}
	err = w.writeWindow(frames, slices.ContainsFunc(window, (*Record).ckptRows))
	if timed {
		// Stored only when it lands on the other side of the budget:
		// every Spin reads the line, and a store per window would take
		// it from the other processor's cache each time.
		if took := int64(time.Since(start)); (took > budget) != (w.lastWindow.Load() > budget) {
			w.lastWindow.Store(took)
		}
	}
	if err == nil && w.tracer.Enabled() {
		// A device-level event: no transaction; Depth is the window size.
		w.tracer.Emit(trace.Event{Kind: trace.EvWALFlush, Depth: len(window), Bytes: bytes})
	}
	return bytes, err
}

// settle accounts a flushed window and delivers its verdict (resolve);
// the caller holds mu. led says that a committer ran the loop.
func (w *WAL) settle(window []*Record, bytes int, err error, led bool) {
	if w.cfg.FsyncLatency > 0 && w.cfg.Device != nil && window[0].clocked() {
		// The real append and sync came on top of the simulated one: the
		// device was busy until now. A window of unclocked records alone
		// had no simulated sync and leaves the clock as it was.
		w.freeAt = time.Now()
	}
	if err != nil {
		w.stats.FailedFlushes++
	} else {
		w.stats.Syncs++
		if led {
			w.stats.LedFlushes++
		}
		for _, r := range window {
			if !r.control {
				w.stats.Records++
			}
		}
		w.stats.Bytes += int64(bytes)
	}
	w.resolve(window, err)
	// The window's array is the loop's for good; it keeps no record
	// (and its frame and row images) alive past the flush.
	clear(window)
}

// windowFrames returns the bytes one window appends and their accounted
// size: a lone record's own encoding as it stands (the device copies or
// writes out what it is handed and keeps no reference), or every
// record's, concatenated into a buffer sized once.
func windowFrames(window []*Record) (frames []byte, bytes int) {
	if len(window) == 1 {
		return window[0].enc, window[0].Bytes
	}
	size := 0
	for _, r := range window {
		bytes += r.Bytes
		size += len(r.enc)
	}
	frames = make([]byte, 0, size)
	for _, r := range window {
		frames = append(frames, r.enc...)
	}
	return frames, bytes
}

// ckptRows reports whether r carries a checkpoint's rows batch: the
// frame whose window fires FaultCkptRows.
func (r *Record) ckptRows() bool {
	return r.control && len(r.enc) > frameHeaderSize && r.enc[frameHeaderSize] == frameCkptRows
}

// writeWindow is the one way bytes reach the device: it fires the
// window's fault points (FaultFlush, FaultCkptRows when rows says the
// window carries a rows batch), appends frames, fires FaultSync and
// syncs, all in one devMu hold, so no retirement (Retire) lands between
// a window's append and its sync. A bricked WAL is refused inside the
// mutex, and any failure from the append on bricks it before the mutex
// is released, so device state and the sticky error change together;
// records still queued when the WAL bricked fail fast with the sticky
// cause. An injected FaultSync error is a failed fsync —
// durability of the window is unknown (fsyncgate); a panic there is
// power dying before the sync reaches the device, the append lost with
// the page cache. Without a device only the fault points run.
func (w *WAL) writeWindow(frames []byte, rows bool) error {
	w.devMu.Lock()
	defer w.devMu.Unlock()
	if err := w.Broken(); err != nil {
		return err
	}
	err, crashed := fire(w.faults, FaultFlush)
	if err == nil && rows {
		err, crashed = fire(w.faults, FaultCkptRows)
	}
	if crashed {
		// Mid-write crash: a torn prefix of the window's first frame
		// made the platter.
		w.crash(err, frames)
	}
	if err != nil {
		// Nothing reached the device. A rows batch's failure bricks the
		// WAL when resolve fails its control record.
		return err
	}
	dev := w.cfg.Device
	if dev != nil {
		err = dev.Append(frames)
	}
	if err == nil {
		if err, crashed = fire(w.faults, FaultSync); crashed {
			w.crash(err, nil)
		}
	}
	if err == nil && dev != nil {
		err = dev.Sync()
	}
	if err != nil {
		w.brick(err)
	}
	return err
}

// resolve delivers one verdict to every record of a flush window,
// advancing the durability watermark for successes and bricking the WAL
// when an async (already published) record or a control record fails —
// that loss cannot be rolled back by aborting a transaction. The caller
// holds mu. The watermark moves before any verdict is sent, so a
// committer that has its verdict finds its CSN under DurableWatermark;
// the sends never block, because a record's channel is buffered and
// gets one verdict per Enqueue.
func (w *WAL) resolve(recs []*Record, err error) {
	for _, r := range recs {
		if r.CSN != 0 {
			w.outstandingRecs--
		}
		switch {
		case err == nil:
			if r.CSN > w.durableCSN {
				w.durableCSN = r.CSN
			}
		case r.Async || r.control:
			w.setBroken(err)
		}
	}
	w.durable.Broadcast()
	for _, r := range recs {
		r.done <- err
	}
}

// setBroken makes err the sticky device error unless there is one. It is
// a call of its own so that only a failure puts an error on the heap.
func (w *WAL) setBroken(err error) { w.broken.CompareAndSwap(nil, &err) }

// brick marks the device dead; every later commit fails until recovery.
func (w *WAL) brick(err error) {
	w.setBroken(err)
	w.mu.Lock()
	w.durable.Broadcast()
	w.mu.Unlock()
}

// crash simulates the process dying at a fault point inside a window's
// device write, atomically with respect to Retire, the other device user
// (the caller holds devMu): the page cache (every unsynced append) is
// lost, and when the crash interrupted a write of frames a strict prefix
// of their first frame is persisted, deterministically cut by the
// write's checksum. Keeping the cut inside the first frame guarantees no
// unacknowledged commit becomes durable, while still leaving a genuinely
// torn tail for recovery to truncate. The fragment is synced: it models
// bytes the platter received mid-write, not page cache. The WAL is
// bricked before devMu is released.
func (w *WAL) crash(cause error, frames []byte) {
	if dev := w.cfg.Device; dev != nil && w.Broken() == nil {
		_, _ = dev.DropUnsynced()
		if len(frames) > 0 {
			_, first, err := DecodeFrameAt(frames, 0)
			if err != nil || first <= 0 {
				first = len(frames)
			}
			cut := int(crc32.Checksum(frames, castagnoli) % uint32(first))
			_ = dev.Append(frames[:cut])
			_ = dev.Sync()
		}
	}
	w.brick(cause)
}

// DurableWatermark returns the highest CSN acknowledged durable and
// whether any enqueued record is still awaiting its verdict.
func (w *WAL) DurableWatermark() (csn uint64, outstanding bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durableCSN, w.outstandingRecs > 0
}

// ResumeDurable seeds the durability watermark, used once at recovery:
// every commit the log replayed is durable by construction, so the
// revived WAL's watermark starts at the recovered high-water mark
// instead of re-earning it one flush at a time.
func (w *WAL) ResumeDurable(csn uint64) {
	w.mu.Lock()
	if csn > w.durableCSN {
		w.durableCSN = csn
	}
	w.mu.Unlock()
}

// WaitDurableCSN blocks until the commit with sequence number csn is
// durable (nil), or the WAL dies first — broken returns the sticky
// device error, a close before durability returns core.ErrWALClosed.
// Because enqueue order is CSN order, csn durable implies every logged
// commit at or below csn is durable too.
func (w *WAL) WaitDurableCSN(csn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.durableCSN < csn && w.Broken() == nil && !w.closed {
		w.durable.Wait()
	}
	if w.durableCSN >= csn {
		return nil
	}
	if err := w.Broken(); err != nil {
		return err
	}
	return core.ErrWALClosed
}

// Drain blocks until the flush queue is empty and no flush is in
// flight. DB.Close uses it to flush async commits before teardown; the
// caller must guarantee no new Enqueues arrive (a broken WAL still
// drains — its pending records fail fast). A simulated sync being held
// for returning committers starts now: none is coming, and neither is
// anybody to lead a sync record still queued with no loop running, so
// the background goroutine flushes it.
func (w *WAL) Drain() {
	w.mu.Lock()
	w.quietAt = time.Now()
	for w.flusher || len(w.pending) > 0 {
		if !w.flusher {
			w.startFlusher()
		}
		w.idle.Wait()
	}
	w.mu.Unlock()
}

// Retire unlinks sealed segments with index < beforeIdx. The caller
// must only pass a beforeIdx at or below the segment index that was
// current when a complete checkpoint appended its begin marker —
// everything before that point is covered by the checkpoint. It takes
// devMu, as a window's write does, and like it refuses a bricked WAL and
// bricks on failure inside the mutex: a crash at FaultRetire drops the
// page cache, which must not happen between a window's append and its
// sync.
func (w *WAL) Retire(beforeIdx int) (retired int, err error) {
	if w.cfg.Device == nil {
		return 0, core.ErrWALClosed
	}
	w.mu.Lock()
	closed := w.closed
	w.mu.Unlock()
	if closed {
		return 0, core.ErrWALClosed
	}
	w.devMu.Lock()
	if err = w.Broken(); err == nil {
		if retired, err = w.cfg.Device.RetireSegments(beforeIdx); err != nil {
			w.brick(err)
		}
	}
	w.devMu.Unlock()
	w.mu.Lock()
	w.stats.RetiredSegments += int64(retired)
	w.mu.Unlock()
	return retired, err
}

// Broken returns the sticky device-death error (nil while healthy). A
// broken WAL rejects every commit until the engine is rebuilt from the
// device via Recover.
func (w *WAL) Broken() error {
	if err := w.broken.Load(); err != nil {
		return *err
	}
	return nil
}

// Stats returns a snapshot of device activity.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Close shuts the device down. Pending, unflushed records fail with
// core.ErrWALClosed; records already in a device write — or in a
// simulated sync that was being held, which starts now — are
// acknowledged by that flush. Close is idempotent, safe against
// concurrent Commit and concurrent Close, and returns only once no
// flush loop is running, a committer's or the background goroutine's — a
// closed WAL has no activity left. (DB.Close drains the queue first, so
// a graceful shutdown flushes async commits rather than failing them.)
func (w *WAL) Close() {
	w.mu.Lock()
	w.closed = true
	w.quietAt = time.Now()
	for w.flusher {
		w.idle.Wait()
	}
	// The flush loop exited and Enqueue rejects new records once closed,
	// so these drained records are exclusively ours to fail. Each
	// record's done channel is buffered and receives exactly one
	// verdict, so a second racing Close (which finds an empty queue)
	// cannot double-send. resolve also pops them from the outstanding
	// count and wakes WaitDurableCSN callers to the close.
	w.resolve(w.pending, core.ErrWALClosed)
	w.pending = nil
	w.mu.Unlock()
}

// Enabled reports whether commits must wait for the log: either the
// latency simulation or a durable device is active.
func (w *WAL) Enabled() bool { return w.cfg.FsyncLatency > 0 || w.cfg.Device != nil }

// Persistent reports whether a durable device is attached.
func (w *WAL) Persistent() bool { return w.cfg.Device != nil }
