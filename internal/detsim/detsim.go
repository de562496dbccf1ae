// Package detsim is the deterministic simulation subsystem: it drives N
// scripted transactions through an exact statement-level interleaving of
// the engine, with every block, wakeup and abort attributed to the step
// that caused it — no wall-clock grace periods. It complements the
// stochastic workload driver the way replayable unit tests complement a
// fuzzer: every anomaly interleaving of the paper (§II) becomes a
// reproducible test across all concurrency-control modes.
//
// The scheduler dispatches one step at a time to per-transaction
// goroutines and then waits until the system is quiescent: the step
// either completed, or the lock table's wait hook
// (engine.DB.SetWaitHooks) reported that its transaction blocked on a
// row lock. A later step that releases the lock wakes the blocked
// transaction synchronously (the engine posts the wake before the
// releasing operation returns), so the scheduler knows deterministically
// which pending steps to collect before moving on.
//
// Every schedule is recorded by one trace recorder, drained once when
// the schedule ends; that stream is the single history the MVSG analysis
// (internal/checker), the online checker (internal/onlinecheck) and the
// brute-force oracle all read.
//
// On top of the scheduler, Explore (enumerate.go) exhaustively runs all
// interleavings of small transaction sets, and the checker oracle
// (oracle.go) cross-validates internal/checker against a brute-force
// serialization-order search.
package detsim

import (
	"fmt"
	"sort"
	"strings"

	"sicost/internal/checker"
	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/faultinject"
	"sicost/internal/histories"
	"sicost/internal/onlinecheck"
	"sicost/internal/storage"
	"sicost/internal/trace"
)

// traceCap is the per-schedule trace ring, allocated once per schedule
// inside Explore's exhaustive DFS and therefore small: a scripted step
// emits two to five events, so this holds schedules of a hundred-odd
// steps (the longest in the suite is 40). One that outgrows it is an
// error, never a silently short history.
const traceCap = 1 << 9

// Status is how one dispatched step ended.
type Status uint8

// Step statuses.
const (
	// OK: the step completed successfully (possibly after blocking).
	OK Status = iota
	// Failed: the step returned an error (possibly after blocking).
	Failed
	// Stuck: the step blocked and was never woken before the schedule
	// ended; the harness force-aborted its transaction.
	Stuck
)

// String names the status.
func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Failed:
		return "failed"
	default:
		return "stuck"
	}
}

// StepResult records one dispatched step.
type StepResult struct {
	Step   histories.Step
	Status Status
	// Blocked reports whether the step blocked on a row lock before
	// resolving — the FUW/2PL wait paths the paper's interleavings
	// exercise.
	Blocked bool
	// Err is set when Status != OK.
	Err error
	// Val is the value returned by a completed read or select-for-update.
	Val int64
}

// Result is the execution record of one deterministic schedule.
type Result struct {
	Steps []StepResult
	// Committed reports, per script transaction number, whether its
	// commit succeeded.
	Committed map[int]bool
	// Errs maps script transaction numbers to the error that terminated
	// them (absent for clean commits; nil-valued for explicit aborts).
	Errs map[int]error
	// Trace is the schedule's lifecycle event stream under a counter
	// clock: scripted traffic only (the loader commits before recording
	// starts), byte-stable as JSONL for schedules without lock waits (a
	// blocked step's wait/wake events race the next dispatched step's).
	Trace []trace.Event
	// Txns are the committed transactions read out of Trace: what Report
	// was computed from, and the input of the brute-force oracle.
	Txns []checker.Txn
	// Report is the serializability analysis of everything that
	// committed (MVSG over Txns).
	Report *checker.Report
	// Online is the online windowed checker's verdict over Trace
	// (Runner.OnlineCheck). Cross-validating it against Report is how the
	// exhaustive interleaving suite proves the incremental checker
	// equivalent to the post-hoc analysis.
	Online *onlinecheck.Report
	// Final holds the final committed value of every item.
	Final map[string]int64
	// Contention is the engine's lock/sequencer counter snapshot after
	// the schedule ran: in a deterministic schedule, Lock.Waits equals
	// the number of steps that blocked (plus FUW re-waits), making the
	// sharded lock table's accounting directly checkable.
	Contention engine.ContentionStats
	// HeldLocks and QueuedLocks audit the lock table after every
	// transaction has finished; a non-zero value means an abort path —
	// injected or organic — leaked a grant or stranded a waiter.
	HeldLocks, QueuedLocks int
	// ReplaySkipped counts dispatch slots RunTrace dropped because the
	// replayed execution diverged from the recording (zero elsewhere).
	ReplaySkipped int
}

// Value returns the value read by the i-th dispatched step.
func (r *Result) Value(i int) int64 { return r.Steps[i].Val }

// Runner executes schedules deterministically against fresh engines.
type Runner struct {
	Mode     core.CCMode
	Platform core.Platform
	// Items pre-loads the single history table (default x=y=z=0).
	Items map[string]int64
	// Faults, when set, wires the engine's fault points to this registry,
	// making injected failures part of the deterministic schedule. Note
	// the loader's seed commit hits commit-path points too: gate specs
	// with After to skip it.
	Faults *faultinject.Registry
	// OnlineCheck additionally runs the schedule's trace stream through
	// the online windowed checker (internal/onlinecheck) and stores the
	// verdict in Result.Online. SI-rule checking is on for the snapshot
	// modes and off for Strict2PL.
	OnlineCheck bool
}

// Run parses the script (the histories DSL) and executes it step by
// step: step i+1 is dispatched only once step i has completed or
// provably blocked. It returns an error for structurally invalid
// schedules (a step of a still-blocked transaction, use before begin).
func (r Runner) Run(script string) (*Result, error) {
	progs, order, err := parseProgs(script)
	if err != nil {
		return nil, err
	}
	res, _, err := r.RunSchedule(progs, order, true)
	return res, err
}

// parseProgs splits a script into per-transaction programs and the
// dispatch order its steps spell out.
func parseProgs(script string) (progs map[int][]histories.Step, order []int, err error) {
	steps, err := histories.Parse(script)
	if err != nil {
		return nil, nil, err
	}
	progs = make(map[int][]histories.Step)
	for _, s := range steps {
		progs[s.Txn] = append(progs[s.Txn], s)
		order = append(order, s.Txn)
	}
	for txn, prog := range progs {
		if prog[0].Kind != histories.OpBegin {
			return nil, nil, fmt.Errorf("detsim: transaction %d used before begin", txn)
		}
	}
	return progs, order, nil
}

// RunSchedule runs pre-parsed per-transaction programs under an explicit
// dispatch order (the enumeration engine's entry point). The order may be
// a prefix of a complete schedule; runnable transaction numbers at the
// end are returned alongside. When finalize is true, leftover
// transactions are aborted and the checker report computed.
func (r Runner) RunSchedule(progs map[int][]histories.Step, order []int, finalize bool) (*Result, []int, error) {
	sc, err := newSched(r, progs)
	if err != nil {
		return nil, nil, err
	}
	defer sc.close()
	for _, t := range order {
		if err := sc.dispatchNext(t); err != nil {
			return nil, nil, err
		}
	}
	runnable := sc.runnable()
	if finalize {
		if err := sc.finalize(); err != nil {
			return nil, nil, err
		}
	}
	return sc.res, runnable, nil
}

// event is one lock-table notification.
type event struct {
	txID uint64
	wake bool
	err  error
}

// txnState tracks one scripted transaction.
type txnState struct {
	prog  []histories.Step
	next  int // index of the next undispatched step
	tx    *engine.Tx
	steps chan histories.Step
	// pending is the res.Steps index of the dispatched, unresolved step
	// (-1 when none).
	pending int
	blocked bool
	// finished: committed, aborted, or auto-aborted after a retriable
	// failure; no further steps will be dispatched by Explore.
	finished bool
}

// completion carries a finished step back to the scheduler.
type completion struct {
	txn int
	sr  StepResult
}

// sched is one schedule execution.
type sched struct {
	r           Runner
	db          *engine.DB
	txns        map[int]*txnState
	byID        map[uint64]int
	events      chan event
	completions chan completion
	res         *Result
	// rec records the schedule; finalize drains it once, and every
	// verdict in the Result is computed from that one stream.
	rec *trace.Recorder
}

func newSched(r Runner, progs map[int][]histories.Step) (*sched, error) {
	db := engine.Open(engine.Config{Mode: r.Mode, Platform: r.Platform, Faults: r.Faults})
	schema := &core.Schema{
		Name: histories.Table,
		Columns: []core.Column{
			{Name: "K", Kind: core.KindString, NotNull: true},
			{Name: "V", Kind: core.KindInt, NotNull: true},
		},
		PK: 0,
	}
	if err := db.CreateTable(schema); err != nil {
		db.Close()
		return nil, err
	}
	items := r.Items
	if items == nil {
		items = map[string]int64{"x": 0, "y": 0, "z": 0}
	}
	seed := db.Begin()
	keys := make([]string, 0, len(items))
	for k := range items {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := seed.Insert(histories.Table, core.Record{core.Str(k), core.Int(items[k])}); err != nil {
			seed.Abort()
			db.Close()
			return nil, err
		}
	}
	if err := seed.Commit(); err != nil {
		db.Close()
		return nil, err
	}

	sc := &sched{
		r:    r,
		db:   db,
		txns: make(map[int]*txnState, len(progs)),
		byID: make(map[uint64]int, len(progs)),
		// Sized so hook posts can never block the lock table: every
		// dispatched step resolves (draining its events) before the
		// next is dispatched, and one step generates at most a handful
		// of wait/wake notifications.
		events:      make(chan event, 1024),
		completions: make(chan completion, len(progs)),
		res: &Result{
			Committed: make(map[int]bool),
			Errs:      make(map[int]error),
		},
	}
	// Installed after the loader committed, so the stream holds scripted
	// traffic only. One shard: strict global FIFO.
	sc.rec = trace.New(trace.Options{Shards: 1, ShardCap: traceCap, Clock: trace.CounterClock()})
	db.SetTracer(sc.rec)
	// The hooks run inside the lock table; they only post to a buffered
	// channel.
	db.SetWaitHooks(storage.WaitHooks{
		OnWait: func(tx uint64, _ storage.LockKey) { sc.events <- event{txID: tx} },
		OnWake: func(tx uint64, _ storage.LockKey, err error) { sc.events <- event{txID: tx, wake: true, err: err} },
	})
	for txn, prog := range progs {
		sc.txns[txn] = &txnState{prog: prog, pending: -1}
	}
	return sc, nil
}

// close tears the schedule down. On error paths some transaction may
// still be blocked in the engine; teardown unwinds those before the
// step channels are closed, so no goroutine is left stranded.
func (sc *sched) close() {
	sc.teardown()
	sc.db.SetWaitHooks(storage.WaitHooks{})
	for _, st := range sc.txns {
		if st.steps != nil {
			close(st.steps)
		}
	}
	sc.db.Close()
}

// teardown aborts every live transaction without ever racing a
// transaction's own goroutine: only transactions with no in-flight step
// are aborted directly (their goroutine is parked on the step channel).
// Aborting a lock holder wakes its blocked waiters, whose steps then
// complete and are collected here — wait chains unwind one abort at a
// time. Chains cannot be circular (the lock table denies deadlocks at
// acquire time), so this terminates.
func (sc *sched) teardown() {
	for {
		// Absorb posted notifications.
		for {
			select {
			case ev := <-sc.events:
				sc.handleEvent(ev)
				continue
			default:
			}
			break
		}
		// Abort idle transactions, in ascending order for reproducibility.
		var txns []int
		for txn := range sc.txns {
			txns = append(txns, txn)
		}
		sort.Ints(txns)
		live, aborted := false, false
		for _, txn := range txns {
			st := sc.txns[txn]
			if st.tx == nil || st.finished {
				continue
			}
			live = true
			if st.pending < 0 {
				st.tx.Abort()
				st.finished = true
				aborted = true
				if _, seen := sc.res.Errs[txn]; !seen {
					sc.res.Errs[txn] = nil
				}
			}
		}
		if !live {
			return
		}
		if aborted {
			// The aborts may have woken blocked steps; re-drain and
			// re-examine before waiting.
			continue
		}
		// Every live transaction has a step in flight; wait for one to
		// resolve (its lock holder died above, or it is still running).
		select {
		case c := <-sc.completions:
			sc.resolve(c)
		case ev := <-sc.events:
			sc.handleEvent(ev)
		}
	}
}

// dispatchNext runs the next undispatched step of txn and settles the
// system (collects the completion, or records a block; collects any
// wakes the step triggered).
func (sc *sched) dispatchNext(txn int) error {
	st := sc.txns[txn]
	if st == nil {
		return fmt.Errorf("detsim: unknown transaction %d", txn)
	}
	if st.blocked {
		return fmt.Errorf("detsim: transaction %d is blocked; schedule cannot dispatch %s", txn, formatStep(st.prog[st.next]))
	}
	if st.next >= len(st.prog) {
		return fmt.Errorf("detsim: transaction %d has no steps left", txn)
	}
	step := st.prog[st.next]
	st.next++

	if step.Kind == histories.OpBegin {
		if st.tx != nil {
			return fmt.Errorf("detsim: transaction %d begun twice", txn)
		}
		// Begin never blocks; run it inline so the snapshot point is
		// exactly this schedule position.
		st.tx = sc.db.Begin()
		st.tx.SetTag(fmt.Sprintf("t%d", txn))
		sc.byID[st.tx.ID()] = txn
		st.steps = make(chan histories.Step)
		go func(t int, s *txnState) {
			for stp := range s.steps {
				sc.completions <- completion{txn: t, sr: execStep(s.tx, stp)}
			}
		}(txn, st)
		sc.res.Steps = append(sc.res.Steps, StepResult{Step: step, Status: OK})
		return nil
	}
	if st.tx == nil {
		return fmt.Errorf("detsim: transaction %d used before begin", txn)
	}
	st.pending = len(sc.res.Steps)
	sc.res.Steps = append(sc.res.Steps, StepResult{Step: step})
	st.steps <- step
	return sc.settle()
}

// settle waits until no transaction is actively executing a step: every
// dispatched step has either completed or blocked. Wakes triggered by a
// completing step re-activate their transaction, so settle keeps
// collecting until the system is quiescent. Determinism: wake events are
// posted by the engine before the causing operation returns, so they are
// observable in the events channel by the time that step's completion is
// received — nothing here depends on timing.
func (sc *sched) settle() error {
	for {
		// Absorb all notifications already posted.
		for {
			select {
			case ev := <-sc.events:
				sc.handleEvent(ev)
				continue
			default:
			}
			break
		}
		if !sc.anyRunning() {
			return nil
		}
		select {
		case c := <-sc.completions:
			sc.resolve(c)
		case ev := <-sc.events:
			sc.handleEvent(ev)
		}
	}
}

// anyRunning reports whether some dispatched step is neither resolved
// nor blocked.
func (sc *sched) anyRunning() bool {
	for _, st := range sc.txns {
		if st.pending >= 0 && !st.blocked {
			return true
		}
	}
	return false
}

func (sc *sched) handleEvent(ev event) {
	txn, ok := sc.byID[ev.txID]
	if !ok {
		return
	}
	st := sc.txns[txn]
	if ev.wake {
		// Granted or ejected: the pending step is running again and
		// will deliver its completion.
		st.blocked = false
		return
	}
	st.blocked = true
	if st.pending >= 0 {
		sc.res.Steps[st.pending].Blocked = true
	}
}

// resolve records a completed step and applies the session discipline: a
// retriable failure aborts the whole transaction immediately (as the
// PostgreSQL client discipline the benchmark uses does), releasing its
// locks — which may wake other blocked steps, collected by settle.
func (sc *sched) resolve(c completion) {
	st := sc.txns[c.txn]
	idx := st.pending
	st.pending = -1
	st.blocked = false
	sr := &sc.res.Steps[idx]
	if sr.Status == Stuck {
		// The step was ejected by finalize's force-abort; keep the Stuck
		// marker, only record what the ejection returned.
		sr.Err = c.sr.Err
		return
	}
	sr.Status, sr.Err, sr.Val = c.sr.Status, c.sr.Err, c.sr.Val

	switch sr.Step.Kind {
	case histories.OpCommit:
		st.finished = true
		if sr.Err == nil {
			sc.res.Committed[c.txn] = true
		} else if _, seen := sc.res.Errs[c.txn]; !seen {
			// Keep the original failure when this commit is the trailing
			// "COMMIT acts as ROLLBACK" of an already-failed transaction.
			sc.res.Errs[c.txn] = sr.Err
		}
	case histories.OpAbort:
		st.finished = true
		if _, seen := sc.res.Errs[c.txn]; !seen {
			sc.res.Errs[c.txn] = nil
		}
	default:
		if sr.Err != nil && core.IsRetriable(sr.Err) {
			sc.res.Errs[c.txn] = sr.Err
			st.tx.Abort()
			st.finished = true
		}
	}
}

// runnable returns the transactions a schedule may dispatch next, in
// ascending order: not finished, not blocked, with steps remaining.
func (sc *sched) runnable() []int {
	var out []int
	for txn, st := range sc.txns {
		if !st.finished && !st.blocked && st.pending < 0 && st.next < len(st.prog) {
			out = append(out, txn)
		}
	}
	sort.Ints(out)
	return out
}

// finalize marks still-blocked steps Stuck (the schedule ended without
// waking them), tears the remaining transactions down, then computes
// the checker report and final item values.
func (sc *sched) finalize() error {
	for _, st := range sc.txns {
		if st.blocked && st.pending >= 0 {
			sc.res.Steps[st.pending].Status = Stuck
		}
	}
	sc.teardown()

	sc.res.HeldLocks, sc.res.QueuedLocks = sc.db.LockAudit()
	sc.res.Trace = sc.rec.Drain()
	if n := sc.rec.Dropped(); n != 0 {
		return fmt.Errorf("detsim: schedule outgrew the trace ring (%d events dropped)", n)
	}
	sc.res.Txns = checker.Txns(sc.res.Trace)
	sc.res.Report = checker.Analyze(sc.res.Txns)
	if sc.r.OnlineCheck {
		sc.res.Online = onlinecheck.Run(sc.res.Trace,
			onlinecheck.Config{SIRules: sc.r.Mode != core.Strict2PL})
	}
	sc.res.Contention = sc.db.Contention()
	sc.res.Final = make(map[string]int64)
	_ = sc.db.ScanLatest(histories.Table, func(key core.Value, rec core.Record) bool {
		sc.res.Final[key.S] = rec[1].Int64()
		return true
	})
	return nil
}

// execStep runs one step on its transaction's goroutine.
func execStep(tx *engine.Tx, s histories.Step) StepResult {
	sr := StepResult{Step: s, Status: OK}
	switch s.Kind {
	case histories.OpRead:
		rec, err := tx.Get(histories.Table, core.Str(s.Item))
		if err != nil {
			sr.Status, sr.Err = Failed, err
			return sr
		}
		sr.Val = rec[1].Int64()
	case histories.OpWrite:
		if err := tx.Update(histories.Table, core.Str(s.Item),
			core.Record{core.Str(s.Item), core.Int(s.Val)}); err != nil {
			sr.Status, sr.Err = Failed, err
		}
	case histories.OpSFU:
		rec, err := tx.ReadForUpdate(histories.Table, core.Str(s.Item))
		if err != nil {
			sr.Status, sr.Err = Failed, err
			return sr
		}
		sr.Val = rec[1].Int64()
	case histories.OpCommit:
		if err := tx.Commit(); err != nil {
			sr.Status, sr.Err = Failed, err
		}
	case histories.OpAbort:
		tx.Abort()
	}
	return sr
}

// Describe renders the execution compactly: one line per step with its
// outcome, then per-transaction fates.
func (r *Result) Describe() string {
	var b strings.Builder
	for _, sr := range r.Steps {
		fmt.Fprintf(&b, "%s", formatStep(sr.Step))
		if sr.Blocked {
			b.WriteString(" [blocked]")
		}
		switch {
		case sr.Status == Stuck:
			b.WriteString(" -> stuck")
		case sr.Err != nil:
			fmt.Fprintf(&b, " -> %v", sr.Err)
		case sr.Step.Kind == histories.OpRead || sr.Step.Kind == histories.OpSFU:
			fmt.Fprintf(&b, " -> %d", sr.Val)
		}
		b.WriteString("\n")
	}
	var txns []int
	for txn := range r.Errs {
		txns = append(txns, txn)
	}
	for txn := range r.Committed {
		if _, dup := r.Errs[txn]; !dup {
			txns = append(txns, txn)
		}
	}
	sort.Ints(txns)
	for _, txn := range txns {
		if r.Committed[txn] {
			fmt.Fprintf(&b, "t%d: committed\n", txn)
		} else if err := r.Errs[txn]; err != nil {
			fmt.Fprintf(&b, "t%d: aborted (%v)\n", txn, err)
		} else {
			fmt.Fprintf(&b, "t%d: aborted\n", txn)
		}
	}
	return b.String()
}

func formatStep(s histories.Step) string {
	switch s.Kind {
	case histories.OpBegin:
		return fmt.Sprintf("b%d", s.Txn)
	case histories.OpRead:
		return fmt.Sprintf("r%d(%s)", s.Txn, s.Item)
	case histories.OpWrite:
		return fmt.Sprintf("w%d(%s,%d)", s.Txn, s.Item, s.Val)
	case histories.OpSFU:
		return fmt.Sprintf("u%d(%s)", s.Txn, s.Item)
	case histories.OpCommit:
		return fmt.Sprintf("c%d", s.Txn)
	default:
		return fmt.Sprintf("a%d", s.Txn)
	}
}
