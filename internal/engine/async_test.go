package engine

import (
	"encoding/json"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"sicost/internal/core"
	"sicost/internal/faultinject"
	"sicost/internal/wal"
)

// syncGateDevice delegates to a memory log but blocks Sync until
// released, holding commits in the pre-durable window.
type syncGateDevice struct {
	*wal.SegmentLog
	mu      sync.Mutex
	open    bool
	release chan struct{}
}

func newSyncGateDevice(t *testing.T) *syncGateDevice {
	return &syncGateDevice{SegmentLog: newMemLog(t), release: make(chan struct{})}
}

func (d *syncGateDevice) Sync() error {
	d.mu.Lock()
	open := d.open
	d.mu.Unlock()
	if !open {
		<-d.release
	}
	return d.SegmentLog.Sync()
}

func (d *syncGateDevice) Open() {
	d.mu.Lock()
	if !d.open {
		d.open = true
		close(d.release)
	}
	d.mu.Unlock()
}

// TestAsyncCommitVisibleBeforeDurable pins the async ordering contract:
// Commit returns and the commit is visible while its record still waits
// for the device sync; DurableSeq trails CommitSeq by exactly the
// durability lag; the durability future resolves when the sync lands.
func TestAsyncCommitVisibleBeforeDurable(t *testing.T) {
	dev := newSyncGateDevice(t)
	db := Open(Config{WAL: wal.Config{Device: dev}, AsyncCommit: true})
	defer db.Close()

	// Setup commits ride the gate too, so open it temporarily.
	dev.Open()
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Insert("T", kv(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitDurable(tx.CommitCSN()); err != nil {
		t.Fatal(err)
	}

	// Re-arm the gate for the commit under test.
	dev.mu.Lock()
	dev.open = false
	dev.release = make(chan struct{})
	dev.mu.Unlock()

	tx = db.Begin()
	tx.SetTag("async-under-test")
	mustSetV(t, tx, 1, 101)
	if err := tx.Commit(); err != nil {
		t.Fatalf("async commit blocked or failed: %v", err)
	}
	csn := tx.CommitCSN()
	if csn == 0 {
		t.Fatal("async commit reported no CSN")
	}

	// Published: a new snapshot sees the write immediately.
	r := db.Begin()
	if v := mustGetV(t, r, 1); v != 101 {
		t.Fatalf("async commit not visible: read %d", v)
	}
	r.Abort()

	// Not yet durable: the future is unresolved and DurableSeq trails.
	select {
	case <-tx.Durable():
		t.Fatal("durability future resolved before the device sync")
	default:
	}
	if ds, cs := db.DurableSeq(), db.CommitSeq(); ds >= cs {
		t.Fatalf("no durability lag: DurableSeq %d, CommitSeq %d", ds, cs)
	}
	if v := logVars(t, db); v.DurabilityLag != v.CommitSeq-v.DurableSeq || v.DurabilityLag == 0 {
		t.Fatalf("sicost_wal in the lag window: %+v", v)
	}

	dev.Open()
	if err := <-tx.Durable(); err != nil {
		t.Fatalf("durability future: %v", err)
	}
	if err := db.WaitDurable(csn); err != nil {
		t.Fatal(err)
	}
	if ds, cs := db.DurableSeq(), db.CommitSeq(); ds != cs {
		t.Fatalf("lag after sync: DurableSeq %d, CommitSeq %d", ds, cs)
	}
	// What `curl /debug/vars` shows: the lag closed, and the counters
	// behind the group-commit gauge.
	v := logVars(t, db)
	if v.DurabilityLag != 0 || v.Stats.Syncs == 0 || v.Stats.Records != 2 ||
		v.CommitsPerSync != v.Stats.CommitsPerSync() {
		t.Fatalf("sicost_wal after the sync: %+v", v)
	}
}

// logVars decodes DB.LogVars the way a scraper of the sicost_wal expvar
// sees it: through its JSON.
func logVars(t *testing.T, db *DB) (v struct {
	CommitSeq, DurableSeq, DurabilityLag uint64
	Stats                                wal.Stats
	CommitsPerSync                       float64
	Checkpoint                           CheckpointStats
	Horizon                              HorizonStats
}) {
	t.Helper()
	b, err := json.Marshal(db.LogVars())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestSyncCommitDurableFutureResolved: sync commits (and read-only
// commits) hand out an already-resolved future, so callers can await
// Durable() uniformly.
func TestSyncCommitDurableFutureResolved(t *testing.T) {
	dev := newMemLog(t)
	db := openDurableKV(t, dev)
	defer db.Close()

	tx := db.Begin()
	mustSetV(t, tx, 1, 101)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-tx.Durable():
		if err != nil {
			t.Fatalf("sync commit durable future: %v", err)
		}
	default:
		t.Fatal("sync commit's future not pre-resolved")
	}
	ro := db.Begin()
	_ = mustGetV(t, ro, 1)
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ro.Durable():
	default:
		t.Fatal("read-only commit's future not pre-resolved")
	}
}

// TestAsyncCloseDrains: DB.Close on an async database flushes the
// pending tail instead of failing it — a graceful shutdown loses
// nothing.
func TestAsyncCloseDrains(t *testing.T) {
	dev := newMemLog(t)
	db := Open(Config{WAL: wal.Config{Device: dev}, AsyncCommit: true})
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Insert("T", kv(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var lastCSN uint64
	for v := int64(101); v <= 120; v++ {
		tx := db.Begin()
		mustSetV(t, tx, 1, v)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		lastCSN = tx.CommitCSN()
	}
	db.Close()

	db2, _, err := Recover(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := scanT(t, db2)[1]; got != 120 {
		t.Fatalf("graceful async close lost commits: recovered v=%d, want 120", got)
	}
	if db2.CommitSeq() != lastCSN {
		t.Fatalf("recovered CommitSeq %d, want %d", db2.CommitSeq(), lastCSN)
	}
}

// TestTxSetAsyncOverride: the per-transaction override wins over the
// database default in both directions.
func TestTxSetAsyncOverride(t *testing.T) {
	dev := newSyncGateDevice(t)
	dev.Open()
	db := Open(Config{WAL: wal.Config{Device: dev}})
	defer db.Close()
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Insert("T", kv(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Gate closed again: a sync-default DB with a per-tx async override
	// must not block.
	dev.mu.Lock()
	dev.open = false
	dev.release = make(chan struct{})
	dev.mu.Unlock()

	tx = db.Begin()
	tx.SetAsync(true)
	mustSetV(t, tx, 1, 101)
	if err := tx.Commit(); err != nil {
		t.Fatalf("async-override commit: %v", err)
	}
	select {
	case <-tx.Durable():
		t.Fatal("future resolved with the gate closed")
	default:
	}
	dev.Open()
	if err := <-tx.Durable(); err != nil {
		t.Fatal(err)
	}

	// And the reverse: an async-default DB with SetAsync(false) waits.
	db2 := Open(Config{WAL: wal.Config{Device: newMemLog(t)}, AsyncCommit: true})
	defer db2.Close()
	if err := db2.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	tx2 := db2.Begin()
	tx2.SetAsync(false)
	if err := tx2.Insert("T", kv(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-tx2.Durable():
		if err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatal("sync-override commit returned before durability")
	}
}

// TestQuickAsyncDurablePrefix is the testing/quick property required by
// the issue: for ANY interleaving of sync and async committers with a
// crash injected at an arbitrary flush or sync point, (1) the log's
// commit CSNs appear in strictly ascending order — coalescing never
// reorders the stream; (2) recovery rebuilds exactly the published
// state restricted to CSNs ≤ the recovered high-water mark; (3) every
// commit whose durability future resolved nil survives (acked durables
// are never lost — async loses only the un-acked tail).
func TestQuickAsyncDurablePrefix(t *testing.T) {
	prop := func(seed int64, faultAfter uint8, faultAtSync bool) bool {
		rng := rand.New(rand.NewSource(seed))
		dev := newMemLog(t)
		reg := faultinject.New(seed)
		db := Open(Config{WAL: wal.Config{Device: dev, MaxBatch: 3}, Faults: reg})
		if err := db.CreateTable(kvSchema("T")); err != nil {
			t.Fatal(err)
		}
		const keys = 6
		load := db.Begin()
		for k := int64(1); k <= keys; k++ {
			if err := load.Insert("T", kv(k, 0)); err != nil {
				t.Fatal(err)
			}
		}
		if err := load.Commit(); err != nil {
			t.Fatal(err)
		}

		point := wal.FaultFlush
		if faultAtSync {
			point = wal.FaultSync
		}
		if err := reg.Arm(faultinject.Spec{
			Point: point, After: uint64(faultAfter % 24), Count: 1,
			Action: faultinject.ActPanic,
		}); err != nil {
			t.Fatal(err)
		}

		// Interleaved committers: each transaction bumps one key's value
		// to a unique stamp, randomly sync or async.
		type ack struct {
			csn     uint64
			durable <-chan error
		}
		var (
			mu   sync.Mutex
			acks []ack
		)
		var wg sync.WaitGroup
		const workers = 4
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int, seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for i := 0; i < 8; i++ {
					tx := db.Begin()
					tx.SetAsync(r.Intn(2) == 0)
					k := int64(r.Intn(keys) + 1)
					rec, err := tx.Get("T", core.Int(k))
					if err != nil {
						tx.Abort()
						continue
					}
					if err := tx.Update("T", core.Int(k), kv(k, rec[1].Int64()+1)); err != nil {
						tx.Abort()
						continue
					}
					if err := tx.Commit(); err != nil {
						continue
					}
					mu.Lock()
					acks = append(acks, ack{csn: tx.CommitCSN(), durable: tx.Durable()})
					mu.Unlock()
				}
			}(w, rng.Int63())
		}
		wg.Wait()

		// Let every pending flush resolve, then classify the acks. (The
		// WAL may or may not have crashed, depending on where the fault
		// landed relative to the committed traffic.)
		db.log.Drain()
		var durable []uint64
		for _, a := range acks {
			if err := <-a.durable; err == nil {
				durable = append(durable, a.csn)
			}
		}

		// Published state and its restriction to the durable prefix,
		// captured before teardown.
		img, err := dev.Segments()
		if err != nil {
			t.Fatal(err)
		}
		db.Close()

		// (1) CSN order on the device: strictly ascending.
		var stream []byte
		for _, seg := range img {
			stream = append(stream, seg.Data...)
		}
		frames, _ := wal.ScanLog(stream)
		last := uint64(0)
		for _, f := range frames {
			if f.Commit == nil {
				continue
			}
			if f.Commit.CSN <= last {
				t.Logf("seed %d: device CSNs out of order: %d after %d", seed, f.Commit.CSN, last)
				return false
			}
			last = f.Commit.CSN
		}

		db2, _, err := Recover(newMemLog(t, img...), Config{})
		if err != nil {
			t.Logf("seed %d: recover: %v", seed, err)
			return false
		}
		defer db2.Close()
		high := db2.CommitSeq()

		// (2) Recovered state == published state restricted to ≤ high.
		want := map[int64]int64{}
		if err := db.ScanAsOf("T", high, func(k core.Value, rec core.Record) bool {
			want[k.Int64()] = rec[1].Int64()
			return true
		}); err != nil {
			t.Fatal(err)
		}
		got := scanT(t, db2)
		if len(got) != len(want) {
			t.Logf("seed %d: recovered %d rows, want %d", seed, len(got), len(want))
			return false
		}
		for k, v := range want {
			if got[k] != v {
				t.Logf("seed %d: key %d recovered %d, want %d (high %d)", seed, k, got[k], v, high)
				return false
			}
		}

		// (3) Acked-durable commits are never lost.
		for _, csn := range durable {
			if csn > high {
				t.Logf("seed %d: durable-acked CSN %d beyond recovered high %d", seed, csn, high)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestStressAsyncCommittersVsRecovery races MPL-16 mixed sync/async
// committers on a segmented log into an injected coalesced-window
// crash, then recovers and audits the durable-prefix contract under
// -race (wired into make ci's stress pass).
func TestStressAsyncCommittersVsRecovery(t *testing.T) {
	dev, err := wal.NewMemSegmentLog(2048)
	if err != nil {
		t.Fatal(err)
	}
	reg := faultinject.New(42)
	db := Open(Config{WAL: wal.Config{Device: dev, MaxBatch: 4}, Faults: reg, AsyncCommit: true})
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	const keys = 16
	load := db.Begin()
	for k := int64(1); k <= keys; k++ {
		if err := load.Insert("T", kv(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := load.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitDurable(load.CommitCSN()); err != nil {
		t.Fatal(err)
	}

	// Crash deep enough into the run that rotations and coalesced
	// windows have happened.
	if err := reg.Arm(faultinject.Spec{Point: wal.FaultSync, After: 40, Count: 1, Action: faultinject.ActPanic}); err != nil {
		t.Fatal(err)
	}

	var (
		mu      sync.Mutex
		durable []uint64
	)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) * 7919))
			for i := 0; i < 40; i++ {
				tx := db.Begin()
				tx.SetAsync(r.Intn(2) == 0)
				k := int64(r.Intn(keys) + 1)
				rec, err := tx.Get("T", core.Int(k))
				if err != nil {
					tx.Abort()
					continue
				}
				if err := tx.Update("T", core.Int(k), kv(k, rec[1].Int64()+1)); err != nil {
					tx.Abort()
					continue
				}
				if err := tx.Commit(); err != nil {
					continue
				}
				csn := tx.CommitCSN()
				fut := tx.Durable()
				go func() {
					if err := <-fut; err == nil {
						mu.Lock()
						durable = append(durable, csn)
						mu.Unlock()
					}
				}()
			}
		}(w)
	}
	wg.Wait()
	db.log.Drain()
	if db.WAL().Broken() == nil {
		t.Fatal("injected sync crash never fired — the stress run was too small")
	}

	img, err := dev.Segments()
	if err != nil {
		t.Fatal(err)
	}
	preSeq := db.CommitSeq()
	db.Close()

	db2, rep, err := Recover(newMemLog(t, img...), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	high := db2.CommitSeq()
	if high > preSeq {
		t.Fatalf("recovered CommitSeq %d beyond pre-crash %d", high, preSeq)
	}
	if rep.ReplayedCommits == 0 {
		t.Fatal("nothing replayed — device lost the whole run")
	}

	mu.Lock()
	defer mu.Unlock()
	for _, csn := range durable {
		if csn > high {
			t.Fatalf("durable-acked CSN %d lost in crash (recovered high %d)", csn, high)
		}
	}
	// And the recovered state matches the published state at the
	// recovered watermark.
	want := map[int64]int64{}
	if err := db.ScanAsOf("T", high, func(k core.Value, rec core.Record) bool {
		want[k.Int64()] = rec[1].Int64()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	got := scanT(t, db2)
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d: recovered %d, want %d at watermark %d", k, got[k], v, high)
		}
	}
}

// TestAsyncBrokenWALFailsFutures: once the device dies, async futures
// resolve with the sticky error and WaitDurable reports it rather than
// hanging.
func TestAsyncBrokenWALFailsFutures(t *testing.T) {
	dev := newMemLog(t)
	reg := faultinject.New(7)
	db := Open(Config{WAL: wal.Config{Device: dev}, Faults: reg, AsyncCommit: true})
	defer db.Close()
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Insert("T", kv(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitDurable(tx.CommitCSN()); err != nil {
		t.Fatal(err)
	}

	if err := reg.Arm(faultinject.Spec{Point: wal.FaultSync, Count: 1, Action: faultinject.ActPanic}); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	mustSetV(t, tx, 1, 101)
	if err := tx.Commit(); err != nil {
		t.Fatalf("async commit must publish before the crash lands: %v", err)
	}
	if err := <-tx.Durable(); !errors.Is(err, core.ErrInjected) {
		t.Fatalf("future on crashed WAL = %v, want ErrInjected", err)
	}
	if err := db.WaitDurable(tx.CommitCSN()); !errors.Is(err, core.ErrInjected) {
		t.Fatalf("WaitDurable on crashed WAL = %v, want ErrInjected", err)
	}
	// The commit is still visible — published state and durable state
	// have diverged, which is exactly what DurableSeq reports.
	r := db.Begin()
	if v := mustGetV(t, r, 1); v != 101 {
		t.Fatalf("published async commit vanished from the live db: %d", v)
	}
	r.Abort()
	if ds := db.DurableSeq(); ds >= db.CommitSeq() {
		t.Fatalf("DurableSeq %d did not trail CommitSeq %d after durability loss", ds, db.CommitSeq())
	}
}
