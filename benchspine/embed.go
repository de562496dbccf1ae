package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/experiments"
	"sicost/internal/smallbank"
	"sicost/internal/wal"
)

// embed-durable's log geometry.
const (
	walSegmentBytes    = 2 << 20
	checkpointLogBytes = 8 << 20
)

// engineConfig is the engine configuration a workload runs on; dev is
// the log device of a durable workload (nil otherwise). The wire
// workloads get what cmd/sisqld hard-wires — the PostgreSQL profile,
// 2.5 ms simulated log sync, free CPUs — so the in-process replica of
// the traced pass pays the same simulated sync.
func engineConfig(spec *workloadSpec, dev wal.LogDevice) engine.Config {
	switch {
	case spec.Wire:
		cfg := experiments.PostgresDB(1.0)
		cfg.Res.VirtualCPUs = 0
		return cfg
	case spec.Durable:
		return engine.Config{
			Mode:               core.SnapshotFUW,
			WAL:                wal.Config{Device: dev},
			CheckpointLogBytes: checkpointLogBytes,
			RetireSegments:     true,
		}
	case spec.SSI:
		return engine.Config{Mode: core.SerializableSI}
	}
	return engine.Config{Mode: core.SnapshotFUW}
}

// embedded is one in-process engine instance with SmallBank loaded.
type embedded struct {
	db  *engine.DB
	cfg engine.Config
	dev *wal.SegmentLog // durable workloads only
	dir string          // the device's directory
}

// openEmbedded opens the workload's engine, declares the schema and
// loads the paper's database. A durable workload gets a fresh segment
// directory under walRoot.
func openEmbedded(spec *workloadSpec, seed int64, walRoot string) (*embedded, error) {
	e := &embedded{}
	if spec.Durable {
		dir, err := os.MkdirTemp(walRoot, "wal-")
		if err != nil {
			return nil, err
		}
		e.dir = dir
		if e.dev, err = wal.OpenSegmentLog(dir, walSegmentBytes); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	}
	var dev wal.LogDevice
	if e.dev != nil {
		dev = e.dev
	}
	e.cfg = engineConfig(spec, dev)
	e.db = engine.Open(e.cfg)
	err := smallbank.CreateSchema(e.db)
	if err == nil {
		_, err = smallbank.Load(e.db, smallbank.LoadConfig{Customers: customers, Seed: seed})
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// close shuts the engine, then its device, and removes the directory.
func (e *embedded) close() {
	e.db.Close()
	if e.dev != nil {
		e.dev.Close()
		os.RemoveAll(e.dir)
	}
}

// embedClient is one closed-loop client of the embedded engine: each
// transaction is one smallbank.Run call on the library path.
type embedClient struct {
	db      *engine.DB
	known   int64 // Σ committed DepositChecking and TransactSaving amounts, − Σ WriteCheck amounts
	wcs     int64 // committed WriteChecks: each may have burnt one more cent
	retries int
	lastErr error
}

func (c *embedClient) runTxn(in txnInput, tr *tracer, seq uint32) outcome {
	if tr != nil {
		// smallbank.Run is one call from outside: the live pass has
		// only the root span; the replay supplies the layers.
		defer tr.close(tr.open(seq, 0, "bench", "txn.live"))
	}
	p := in.params()
	for try := 0; ; try++ {
		err := smallbank.Run(c.db, smallbank.StrategySI, in.typ, p)
		switch {
		case err == nil:
			switch in.typ {
			case smallbank.DepositChecking, smallbank.TransactSaving:
				c.known += in.v
			case smallbank.WriteCheck:
				c.known -= in.v
				c.wcs++
			}
			return committed
		case errors.Is(err, core.ErrRollback):
			return appRollback
		case !core.IsRetriable(err) || try == maxRetries:
			c.lastErr = err
			return failed
		}
		c.retries++
		beforeRerun(try)
	}
}

// bankState is the latest committed value of column 1 of every row of
// every SmallBank table.
type bankState map[string]map[core.Value]int64

var bankTables = []string{smallbank.TableAccount, smallbank.TableSaving, smallbank.TableChecking, smallbank.TableConflict}

// captureState copies the state db published up to cut (0 = latest).
// It only walks the in-memory version chains, so it is safe on a closed
// instance.
func captureState(db *engine.DB, cut uint64) (bankState, error) {
	st := bankState{}
	for _, tbl := range bankTables {
		rows := map[core.Value]int64{}
		visit := func(k core.Value, rec core.Record) bool {
			rows[k] = rec[1].Int64()
			return true
		}
		var err error
		if cut == 0 {
			err = db.ScanLatest(tbl, visit)
		} else {
			err = db.ScanAsOf(tbl, cut, visit)
		}
		if err != nil {
			return nil, err
		}
		st[tbl] = rows
	}
	return st, nil
}

func (st bankState) money() int64 {
	var total int64
	for _, tbl := range []string{smallbank.TableSaving, smallbank.TableChecking} {
		for _, v := range st[tbl] {
			total += v
		}
	}
	return total
}

// diff describes the first difference between two states, "" for none.
func (st bankState) diff(got bankState) string {
	for tbl, want := range st {
		if len(got[tbl]) != len(want) {
			return fmt.Sprintf("%s: %d rows, want %d", tbl, len(got[tbl]), len(want))
		}
		for k, w := range want {
			if g, ok := got[tbl][k]; !ok || g != w {
				return fmt.Sprintf("%s/%v: %d (present=%v), want %d", tbl, k, g, ok, w)
			}
		}
	}
	return ""
}

// auditEmbedded checks an embedded run once its clients have stopped:
// no lock or transaction is left behind, and the money in the bank
// moved by exactly what the acknowledged commits moved. smallbank.Run
// does not tell its caller whether a WriteCheck paid the one-cent
// overdraft penalty, so the ledger is exact up to one cent per
// committed WriteCheck.
func auditEmbedded(e *embedded, initialMoney int64, clients []*embedClient) error {
	if held, queued := e.db.LockAudit(); held != 0 || queued != 0 {
		return fmt.Errorf("audit: lock table not empty: %d held, %d queued", held, queued)
	}
	if n := e.db.InFlightTxns(); n != 0 {
		return fmt.Errorf("audit: %d transactions still in flight", n)
	}
	st, err := captureState(e.db, 0)
	if err != nil {
		return err
	}
	var known, wcs int64
	for _, c := range clients {
		known += c.known
		wcs += c.wcs
	}
	if moved := st.money() - initialMoney; moved > known || moved < known-wcs {
		return fmt.Errorf("audit: ledger: money moved by %d, acknowledged commits moved %d (and up to %d penalty cents)",
			moved, known, wcs)
	}
	return nil
}

// auditRecovery is the durability audit, and closes e: drop what the
// device never synced (killing the process would leave the page cache
// intact, so the audit discards it itself), reopen the directory,
// recover, and require the recovered state to equal the state published
// at the last acknowledged commit. It returns the recovery time.
func auditRecovery(e *embedded) (time.Duration, error) {
	cut := e.db.CommitSeq()
	want, err := captureState(e.db, cut)
	e.db.Close()
	defer os.RemoveAll(e.dir)
	if err != nil {
		e.dev.Close()
		return 0, err
	}
	_, err = e.dev.DropUnsynced()
	if cerr := e.dev.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("audit: recovery: %w", err)
	}
	dev, err := wal.OpenSegmentLog(e.dir, walSegmentBytes)
	if err != nil {
		return 0, fmt.Errorf("audit: recovery: reopen: %w", err)
	}
	defer dev.Close()
	cfg := e.cfg
	cfg.CheckpointLogBytes = 0 // the recovered instance only answers the audit
	start := time.Now()
	db, rep, err := engine.Recover(dev, cfg)
	took := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("audit: recovery: %w", err)
	}
	defer db.Close()
	if rep.HighCSN != cut {
		return 0, fmt.Errorf("audit: recovery: recovered CSN %d, last acknowledged %d", rep.HighCSN, cut)
	}
	got, err := captureState(db, 0)
	if err != nil {
		return 0, err
	}
	if d := want.diff(got); d != "" {
		return 0, fmt.Errorf("audit: recovery: recovered state differs from published: %s", d)
	}
	return took, nil
}

// logWatcher samples, from outside, what embed-durable's background
// work does: the bytes ever appended to the segment directory (commit
// frames and checkpoint links; a retired segment keeps the size it was
// last seen with) and the longest commit-barrier pause of a checkpoint.
type logWatcher struct {
	e    *embedded
	stop chan struct{}
	done sync.WaitGroup

	mu       sync.Mutex
	sizes    map[string]int64
	maxPause int64
}

func watchLog(e *embedded) *logWatcher {
	w := &logWatcher{e: e, stop: make(chan struct{}), sizes: map[string]int64{}}
	w.sample()
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		// A sealed segment outlives at least one checkpoint link and a
		// link takes about a second, so 50 ms sees every segment at its
		// final size and every link's pause.
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				w.sample()
			}
		}
	}()
	return w
}

func (w *logWatcher) sample() {
	pause := w.e.db.CheckpointStats().LastPauseNS
	entries, _ := os.ReadDir(w.e.dir) // a segment retired mid-listing keeps its last seen size
	w.mu.Lock()
	defer w.mu.Unlock()
	if pause > w.maxPause {
		w.maxPause = pause
	}
	for _, ent := range entries {
		if _, ok := wal.ParseSegmentName(ent.Name()); !ok {
			continue
		}
		if info, err := os.Stat(filepath.Join(w.e.dir, ent.Name())); err == nil {
			w.sizes[ent.Name()] = info.Size()
		}
	}
}

// appended samples once more and returns the bytes appended so far.
func (w *logWatcher) appended() int64 {
	w.sample()
	w.mu.Lock()
	defer w.mu.Unlock()
	var total int64
	for _, n := range w.sizes {
		total += n
	}
	return total
}

// finish stops the sampler and returns the longest pause seen.
func (w *logWatcher) finish() time.Duration {
	close(w.stop)
	w.done.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	return time.Duration(w.maxPause)
}
