package workload

import (
	"fmt"
	"time"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/faultinject"
	"sicost/internal/smallbank"
	"sicost/internal/storage"
	"sicost/internal/wal"
)

// CrashChaosConfig parameterizes a crash/recover chaos run: repeated
// cycles of workload → injected crash → recovery → audit → resume
// against one shared in-memory segmented log, the harness behind
// cmd/smallbank -crash and the durability regression tests.
type CrashChaosConfig struct {
	// Mode and Platform configure the engine (defaults: SnapshotFUW on
	// PlatformPostgres, the paper's primary platform).
	Mode     core.CCMode
	Platform core.Platform
	// Cycles is the number of crash/recover rounds (default 20).
	Cycles int
	// Customers is the loaded bank size (default 60; kept small so each
	// cycle's full-state audit is cheap).
	Customers int
	// MPL is the per-burst client count (default 6).
	MPL int
	// Burst is each cycle's measurement interval (default 40ms — long
	// enough for hundreds of commits at zero simulated cost).
	Burst time.Duration
	// Seed derives every cycle's workload seed and the fault registry's
	// RNG stream.
	Seed int64
	// CheckpointEvery takes a checkpoint after every Nth recovery, so
	// later cycles exercise checkpoint+redo recovery rather than pure
	// replay (default 2; negative disables checkpoints entirely).
	CheckpointEvery int
	// Async opts every burst into asynchronous commit
	// (synchronous_commit=off): commits publish before they are durable,
	// so a crash may lose the acked-but-unsynced tail. The audit weakens
	// accordingly — recovery must land exactly on the published state
	// restricted to the recovered high-water mark, and no commit whose
	// durability future resolved may be lost — and the burst switches to
	// a zero-delta mix so money conservation holds on every committed
	// prefix.
	Async bool
	// Fuzzy keeps checkpointing live during the bursts: the engine's
	// log-growth scheduler checkpoints with a small threshold (so
	// checkpoints stream inside bursts, concurrent with commits), covered
	// segments are retired online, and the crash rotation gains the
	// mid-checkpoint (wal/ckpt-rows) and mid-retire (wal/retire) points.
	// Without it checkpoints happen only between bursts, on the
	// CheckpointEvery cadence.
	Fuzzy bool
	// TxDeadline > 0 stamps every transaction with a default deadline
	// and adds FsyncLatency of simulated device-sync time, so deadlines
	// expire inside flush-group waits: WAL.Withdraw races the flush
	// window's claim while crash faults fire around both. The audit is
	// unchanged — a withdrawn commit must be indistinguishable from an
	// abort (never half-published), or the state diff catches it.
	TxDeadline   time.Duration
	FsyncLatency time.Duration
}

func (c *CrashChaosConfig) defaults() {
	if c.Cycles == 0 {
		c.Cycles = 20
	}
	if c.Customers == 0 {
		c.Customers = 60
	}
	if c.MPL == 0 {
		c.MPL = 6
	}
	if c.Burst == 0 {
		c.Burst = 40 * time.Millisecond
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 2
	}
}

// CrashCycle records one crash/recover round.
type CrashCycle struct {
	Cycle int
	// Point is the fault point armed as this cycle's crash site; Fired
	// says whether the burst actually hit it (a burst can end before the
	// trigger count is reached — the cycle still crash-recovers, it just
	// exercises a clean-shutdown log tail).
	Point string
	Fired uint64
	// Commits and Aborts summarize the burst before the crash;
	// DeadlineAborts is the subset that expired their transaction
	// deadline (only populated when TxDeadline is set).
	Commits, Aborts int64
	DeadlineAborts  int64
	// TornBytes is the length of the log tail recovery discarded;
	// non-zero only when the crash tore a device append mid-frame.
	TornBytes int
	// CheckpointRows and ReplayedCommits split recovery's work between
	// the checkpoint snapshot and redo replay.
	CheckpointRows  int
	ReplayedCommits int
	// HighCSN is the recovered commit-sequence high-water mark.
	HighCSN uint64
	// DurableSeq is the crashed instance's durability watermark after the
	// burst quiesced: the highest CSN whose commit was acknowledged
	// durable. Recovery must never land below it.
	DurableSeq uint64
	// Segments is the number of log segments recovery scanned.
	Segments int
	// CheckpointCSN is the cut of the checkpoint recovery restored (0
	// when the log held no complete checkpoint).
	CheckpointCSN uint64
	// Checkpointed reports whether a checkpoint was taken after this
	// cycle's recovery.
	Checkpointed bool
}

// CrashChaosReport is the outcome of a crash-chaos run.
type CrashChaosReport struct {
	Cycles []CrashCycle
	// InitialTotal is the bank's money after load; FinalTotal after the
	// last resume burst. Conservation demands
	// FinalTotal == InitialTotal + Ledger.
	InitialTotal, FinalTotal int64
	// Ledger is the acked committed money movement summed over every
	// burst (see Result.CommittedDelta).
	Ledger int64
	// ResumeCommits counts the final fault-free burst's commits — proof
	// the last recovered instance still makes progress.
	ResumeCommits int64
	// Violations lists every broken durability invariant; empty means
	// the engine survived every crash cleanly.
	Violations []string
}

// OK reports whether every audited invariant held.
func (r *CrashChaosReport) OK() bool { return len(r.Violations) == 0 }

// CrashesFired sums crash-fault triggers across cycles.
func (r *CrashChaosReport) CrashesFired() uint64 {
	var n uint64
	for _, c := range r.Cycles {
		n += c.Fired
	}
	return n
}

// crashSegmentSize is the harness's rotation threshold: small enough
// that every burst rotates several times, so crashes land on both sides
// of segment boundaries and retirement has sealed segments to unlink.
const crashSegmentSize = 4096

// crashPoints is the rotation of crash sites: a torn mid-flush device
// write, power dying between a window's append and its sync, a death
// inside the WAL commit window, a death at the head of commit stamping,
// a death mid-statement while holding row locks, a death at transaction
// begin, and a crash inside segment rotation, between sealing the full
// segment and opening its successor. Together they cover the log tail
// in every interesting state.
func (c *CrashChaosConfig) crashPoints() []string {
	pts := []string{
		wal.FaultFlush,
		wal.FaultSync,
		wal.FaultCommit,
		engine.FaultCommitStamp,
		storage.FaultRowWrite,
		engine.FaultBegin,
		wal.FaultRotate,
	}
	if c.Fuzzy {
		pts = append(pts, wal.FaultCkptRows, wal.FaultRetire)
	}
	return pts
}

// crashSpec picks cycle's crash site and moment: one deterministic
// panic after a varying number of hits, so crashes land at different
// depths of the burst.
func crashSpec(points []string, cycle int) faultinject.Spec {
	p := points[cycle%len(points)]
	after := uint64(2 + 5*(cycle%7))
	// The checkpoint points fire a handful of times per burst (once per
	// rows batch streamed / segment retired), not hundreds: trigger early
	// so the armed cycle actually crashes inside them.
	if p == wal.FaultCkptRows || p == wal.FaultRetire {
		after = uint64(cycle % 3)
	}
	return faultinject.Spec{
		Point:  p,
		After:  after,
		Count:  1,
		Action: faultinject.ActPanic,
	}
}

// zeroDeltaMix is the async harness's program mix: Balance and
// Amalgamate only. Both leave total money unchanged, so conservation
// holds on EVERY committed prefix — which is what an async crash
// recovers. A mix with DepositChecking or TransactSaving would need
// the exact set of surviving commits to reconstruct the ledger; a
// zero-delta mix needs nothing.
func zeroDeltaMix() Mix {
	var m Mix
	m[smallbank.Balance] = 0.3
	m[smallbank.Amalgamate] = 0.7
	return m
}

// smallbankTables is the audit's scan set.
var smallbankTables = []string{
	smallbank.TableAccount,
	smallbank.TableSaving,
	smallbank.TableChecking,
	smallbank.TableConflict,
}

// dbState is a full copy of the latest committed record of every row,
// keyed by table then primary key.
type dbState map[string]map[core.Value]core.Record

// captureState snapshots db's committed state for exact comparison.
func captureState(db *engine.DB) (dbState, error) {
	st := make(dbState, len(smallbankTables))
	for _, tbl := range smallbankTables {
		m := make(map[core.Value]core.Record)
		if err := db.ScanLatest(tbl, func(k core.Value, rec core.Record) bool {
			m[k] = rec.Clone()
			return true
		}); err != nil {
			return nil, err
		}
		st[tbl] = m
	}
	return st, nil
}

// captureStateAsOf snapshots the newest committed record of every row
// with CSN ≤ cut — the state an instance published up to that commit.
// Safe on a closed instance: it only walks the in-memory version
// chains.
func captureStateAsOf(db *engine.DB, cut uint64) (dbState, error) {
	st := make(dbState, len(smallbankTables))
	for _, tbl := range smallbankTables {
		m := make(map[core.Value]core.Record)
		if err := db.ScanAsOf(tbl, cut, func(k core.Value, rec core.Record) bool {
			m[k] = rec.Clone()
			return true
		}); err != nil {
			return nil, err
		}
		st[tbl] = m
	}
	return st, nil
}

// diffState returns "" when the two states are identical, else a
// description of the first discrepancy found.
func diffState(want, got dbState) string {
	for tbl, wm := range want {
		gm := got[tbl]
		if len(wm) != len(gm) {
			return fmt.Sprintf("%s: %d rows, want %d", tbl, len(gm), len(wm))
		}
		for k, wr := range wm {
			gr, ok := gm[k]
			if !ok {
				return fmt.Sprintf("%s/%v: row missing", tbl, k)
			}
			if !wr.Equal(gr) {
				return fmt.Sprintf("%s/%v: record %v, want %v", tbl, k, gr, wr)
			}
		}
	}
	return ""
}

// RunCrashChaos drives the durability contract end to end: load a bank
// on an in-memory segmented log, then repeatedly run a short
// SmallBank burst with one crash fault armed, kill the instance,
// recover a fresh instance from the device, and audit it —
//
//   - every acked commit survives and no partial transaction is
//     visible: the recovered state equals, row for row, the state the
//     crashed instance acknowledged (valid because commits are durable
//     before they are visible, and the burst quiesces before capture);
//   - money is conserved: total money equals the initial load plus the
//     acked ledger of every burst so far;
//   - CSNs stay monotone: the recovered high-water mark never exceeds
//     the crashed instance's published sequence, and the revived
//     sequencer resumes exactly at the recovered mark;
//   - recovery is idempotent: recovering an untouched copy of the
//     pre-repair device image yields the identical state.
//
// Checkpoints are taken on a configurable cadence so recovery
// alternates between pure redo and checkpoint+redo. After the last
// cycle a fault-free burst must still commit, proving the survivor
// resumes normal service. Harness failures (a burst that cannot run)
// return an error; broken invariants are reported as Violations.
func RunCrashChaos(cfg CrashChaosConfig) (*CrashChaosReport, error) {
	cfg.defaults()

	dev, err := wal.NewMemSegmentLog(crashSegmentSize)
	if err != nil {
		return nil, err
	}
	reg := faultinject.New(cfg.Seed)
	ecfg := engine.Config{
		Mode:        cfg.Mode,
		Platform:    cfg.Platform,
		WAL:         wal.Config{Device: dev, FsyncLatency: cfg.FsyncLatency},
		Faults:      reg,
		AsyncCommit: cfg.Async,
	}
	if cfg.Fuzzy {
		// Small threshold so the scheduler checkpoints (and retirement
		// runs) inside every burst.
		ecfg.CheckpointLogBytes = 4096
		ecfg.RetireSegments = true
	}

	db, initial, err := smallbank.Open(ecfg, smallbank.LoadConfig{Customers: cfg.Customers, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	// Compact the load into a checkpoint so the first cycles replay
	// burst commits, not the loader's. The loader's big batch
	// transactions ran without the bursts' per-transaction budget; every
	// instance that runs a burst has it armed.
	if _, err := db.Checkpoint(); err != nil {
		db.Close()
		return nil, err
	}
	db.SetDefaultTxDeadline(cfg.TxDeadline)

	rep := &CrashChaosReport{InitialTotal: initial}
	violatef := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}

	mix := ConservingMix()
	if cfg.Async {
		mix = zeroDeltaMix()
	}
	wcfg := Config{
		MPL:         cfg.MPL,
		Customers:   cfg.Customers,
		HotspotSize: max(2, cfg.Customers/5),
		HotspotProb: 0.9,
		Mix:         mix,
		Measure:     cfg.Burst,
		Retry:       ImmediatePolicy{MaxRetries: 20},
	}

	points := cfg.crashPoints()
	var ledger int64
	for i := 0; i < cfg.Cycles; i++ {
		cyc := CrashCycle{Cycle: i}
		spec := crashSpec(points, i)
		cyc.Point = spec.Point
		if err := reg.Arm(spec); err != nil {
			db.Close()
			return nil, err
		}
		wcfg.Seed = cfg.Seed + int64(i+1)*7919
		res, runErr := Run(db, wcfg)
		cyc.Fired = reg.Fired(spec.Point)
		reg.Disarm(spec.Point)
		if runErr != nil {
			db.Close()
			return nil, fmt.Errorf("workload: crash cycle %d: %w", i, runErr)
		}
		ledger += res.CommittedDelta
		cyc.Commits, cyc.Aborts = res.Commits, res.Aborts
		for j := range res.PerType {
			cyc.DeadlineAborts += res.PerType[j].Aborts[core.AbortDeadline]
		}

		// Let in-flight flushes resolve so the durability watermark is
		// final (a no-op when the crash already bricked the device), then
		// capture the crashed instance's published state. In sync mode
		// published == acked-durable; in async mode the watermark may
		// trail the published sequence — exactly the tail a crash is
		// allowed to lose.
		db.WAL().Drain()
		cyc.DurableSeq = db.DurableSeq()
		acked, err := captureState(db)
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("workload: crash cycle %d: pre-crash capture: %w", i, err)
		}
		preSeq := db.CommitSeq()
		crashed := db
		db.Close()

		// Pre-repair device image for the idempotence audit, taken before
		// Recover may truncate a torn tail in place.
		img, err := dev.Segments()
		if err != nil {
			return nil, fmt.Errorf("workload: crash cycle %d: device read: %w", i, err)
		}

		db2, rrep, err := engine.Recover(dev, ecfg)
		if err != nil {
			violatef("cycle %d (%s): recovery failed: %v", i, cyc.Point, err)
			rep.Cycles = append(rep.Cycles, cyc)
			return rep, nil
		}
		cyc.TornBytes = rrep.Log.TornBytes
		cyc.CheckpointRows = rrep.CheckpointRows
		cyc.ReplayedCommits = rrep.ReplayedCommits
		cyc.HighCSN = rrep.HighCSN
		cyc.Segments = rrep.Log.Segments
		if rrep.Log.Checkpoint != nil {
			cyc.CheckpointCSN = rrep.Log.Checkpoint.CSN
		}

		recovered, err := captureState(db2)
		if err != nil {
			db2.Close()
			return nil, fmt.Errorf("workload: crash cycle %d: post-recovery capture: %w", i, err)
		}
		// The durability watermark is a floor in both modes: a commit
		// whose durability was acknowledged — the sync-commit return, or
		// the async future resolving nil — must never be lost.
		if cyc.HighCSN < cyc.DurableSeq {
			violatef("cycle %d (%s): acked-durable commits lost: recovered CSN %d below watermark %d",
				i, cyc.Point, cyc.HighCSN, cyc.DurableSeq)
		}
		if cfg.Async {
			// Async contract: recovery lands exactly on the published
			// state restricted to the recovered high-water mark — the
			// un-acked tail (CSNs above HighCSN) is the ONLY thing lost,
			// and nothing below it is.
			expected, err := captureStateAsOf(crashed, cyc.HighCSN)
			if err != nil {
				db2.Close()
				return nil, fmt.Errorf("workload: crash cycle %d: as-of capture: %w", i, err)
			}
			if d := diffState(expected, recovered); d != "" {
				violatef("cycle %d (%s): async durable-prefix contract broken: %s", i, cyc.Point, d)
			}
		} else if d := diffState(acked, recovered); d != "" {
			violatef("cycle %d (%s): durability contract broken: %s", i, cyc.Point, d)
		}
		total, err := smallbank.TotalMoney(db2)
		if err != nil {
			db2.Close()
			return nil, fmt.Errorf("workload: crash cycle %d: money audit: %w", i, err)
		}
		if total != initial+ledger {
			violatef("cycle %d (%s): conservation: total %d, want %d (initial %d + ledger %d)",
				i, cyc.Point, total, initial+ledger, initial, ledger)
		}
		if rrep.HighCSN > preSeq {
			violatef("cycle %d (%s): recovered CSN %d exceeds crashed instance's published %d",
				i, cyc.Point, rrep.HighCSN, preSeq)
		}
		if got := db2.CommitSeq(); got != rrep.HighCSN {
			violatef("cycle %d (%s): revived sequencer at %d, want recovered high-water %d",
				i, cyc.Point, got, rrep.HighCSN)
		}

		// Idempotence: recovering the untouched pre-repair image must
		// land in the identical state.
		dev3, err := wal.NewMemSegmentLog(crashSegmentSize, img...)
		if err != nil {
			db2.Close()
			return nil, fmt.Errorf("workload: crash cycle %d: device image: %w", i, err)
		}
		db3, rrep3, err := engine.Recover(dev3, ecfg)
		if err != nil {
			violatef("cycle %d (%s): re-recovery of pre-repair image failed: %v", i, cyc.Point, err)
		} else {
			again, err := captureState(db3)
			if err != nil {
				db3.Close()
				db2.Close()
				return nil, fmt.Errorf("workload: crash cycle %d: re-recovery capture: %w", i, err)
			}
			if d := diffState(recovered, again); d != "" {
				violatef("cycle %d (%s): recovery not idempotent: %s", i, cyc.Point, d)
			}
			if rrep3.HighCSN != rrep.HighCSN {
				violatef("cycle %d (%s): re-recovery CSN %d, want %d", i, cyc.Point, rrep3.HighCSN, rrep.HighCSN)
			}
			db3.Close()
		}

		db = db2
		db.SetDefaultTxDeadline(cfg.TxDeadline)
		if cfg.CheckpointEvery > 0 && (i+1)%cfg.CheckpointEvery == 0 {
			if _, err := db.Checkpoint(); err != nil {
				violatef("cycle %d (%s): checkpoint after recovery failed: %v", i, cyc.Point, err)
			} else {
				cyc.Checkpointed = true
			}
		}
		rep.Cycles = append(rep.Cycles, cyc)
	}

	// The survivor must resume normal, fault-free service.
	wcfg.Seed = cfg.Seed - 1
	res, err := Run(db, wcfg)
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("workload: resume burst: %w", err)
	}
	ledger += res.CommittedDelta
	rep.ResumeCommits = res.Commits
	if res.Commits == 0 {
		violatef("resume: recovered database committed nothing in a fault-free burst")
	}
	rep.FinalTotal, err = smallbank.TotalMoney(db)
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("workload: final audit: %w", err)
	}
	if rep.FinalTotal != initial+ledger {
		violatef("final conservation: total %d, want %d (initial %d + ledger %d)",
			rep.FinalTotal, initial+ledger, initial, ledger)
	}
	if held, queued := db.LockAudit(); held != 0 || queued != 0 {
		violatef("lock leak after resume: %d held, %d queued", held, queued)
	}
	rep.Ledger = ledger
	db.Close()
	return rep, nil
}
