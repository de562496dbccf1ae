package engine

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sicost/internal/core"
	"sicost/internal/wal"
)

// chainLen returns the version-chain length of T's row k.
func chainLen(t *testing.T, db *DB, k int64) int {
	t.Helper()
	tbl, err := db.store.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	return tbl.Row(core.Int(k)).ChainLen()
}

// TestHorizonPinnedByOpenTransaction: a transaction held open pins the
// horizon — however many times the row is overwritten it keeps reading
// its snapshot, and the chain keeps every version since — and once it
// ends the next write collapses the chain.
func TestHorizonPinnedByOpenTransaction(t *testing.T) {
	db := openKV(t, core.SnapshotFUW, core.PlatformPostgres)
	held := db.Begin()
	if v := mustGetV(t, held, 1); v != 100 {
		t.Fatalf("snapshot read %d", v)
	}
	const overwrites = 10000
	for i := int64(0); i < overwrites; i++ {
		commitUpdate(t, db, 1, i)
	}
	if v := mustGetV(t, held, 1); v != 100 {
		t.Fatalf("held snapshot read %d after %d overwrites, want 100", v, overwrites)
	}
	if n := chainLen(t, db, 1); n < overwrites {
		t.Fatalf("chain holds %d versions under a pinned horizon, want at least %d", n, overwrites)
	}
	hs := db.HorizonStats()
	if hs.Horizon > held.StartCSN() || hs.Lag < overwrites {
		t.Fatalf("horizon %+v passed the open snapshot %d", hs, held.StartCSN())
	}
	held.Abort()

	// The horizon is recomputed every horizonEvery transaction ends; do
	// it now, so that the very next write shows the cut.
	db.hz.advance(db.DurableSeq())
	commitUpdate(t, db, 1, -1)
	if n := chainLen(t, db, 1); n > 2 {
		t.Fatalf("chain still holds %d versions after the pin went away", n)
	}
	if hs := db.HorizonStats(); hs.Pruned < overwrites || hs.Lag > 1 {
		t.Fatalf("horizon after the cut: %+v", hs)
	}
	// Without anybody's help: a few dozen more commits keep it short.
	for i := int64(0); i < 4*horizonEvery; i++ {
		commitUpdate(t, db, 1, i)
	}
	if n := chainLen(t, db, 1); n > horizonEvery+2 {
		t.Fatalf("chain grew back to %d versions with nobody reading", n)
	}
}

// TestHorizonServesSSI: the marks of finished transactions go once the
// horizon has passed their commits, read-only ones included (nothing
// else would ever recompute a horizon for them), and stay while a
// concurrent transaction is open.
func TestHorizonServesSSI(t *testing.T) {
	db := openKV(t, core.SerializableSI, core.PlatformPostgres)
	marks := func() int {
		db.ssi.mu.Lock()
		defer db.ssi.mu.Unlock()
		n := 0
		for _, l := range db.ssi.readers {
			n += len(l)
		}
		for _, l := range db.ssi.writers {
			n += len(l)
		}
		return n
	}
	held := db.Begin()
	mustGetV(t, held, 2)
	for i := int64(0); i < 2000; i++ {
		commitUpdate(t, db, 1, i)
		r := db.Begin()
		mustGetV(t, r, 1)
		if err := r.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if n := marks(); n < 2000 {
		t.Fatalf("%d marks kept while a concurrent transaction is open, want every writer's", n)
	}
	held.Abort()
	for i := int64(0); i < 2000; i++ {
		r := db.Begin()
		mustGetV(t, r, 1)
		if err := r.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if n := marks(); n > 2*horizonEvery {
		t.Fatalf("%d marks left with nothing concurrent", n)
	}
}

// TestScanAsOfSnapshotTooOld: a scan below the horizon is refused, not
// answered from chains that no longer hold its versions; at the horizon
// and at DurableSeq under async commit — where the crash audits scan —
// it is exact.
func TestScanAsOfSnapshotTooOld(t *testing.T) {
	dev := newSyncGateDevice(t)
	dev.Open()
	db := Open(Config{WAL: wal.Config{Device: dev}, AsyncCommit: true})
	defer db.Close()
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Insert("T", kv(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var last *Tx
	for i := int64(1); i <= 200; i++ {
		last = db.Begin()
		mustSetV(t, last, 1, i)
		if err := last.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-last.Durable(); err != nil {
		t.Fatal(err)
	}
	durableCut := db.DurableSeq()

	// The device stalls: commits keep publishing, durability stands still
	// and holds the horizon with it.
	dev.mu.Lock()
	dev.open = false
	dev.release = make(chan struct{})
	dev.mu.Unlock()
	for i := int64(201); i <= 400; i++ {
		tx := db.Begin()
		mustSetV(t, tx, 1, i)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	db.hz.advance(db.DurableSeq())
	if ds := db.DurableSeq(); ds != durableCut || db.CommitSeq() != durableCut+200 {
		t.Fatalf("DurableSeq %d (was %d), CommitSeq %d", ds, durableCut, db.CommitSeq())
	}
	// As an operator sees it in the sicost_wal expvar: held at DurableSeq,
	// lagging by exactly the durability lag.
	if v := logVars(t, db); v.Horizon.Horizon != durableCut || v.Horizon.Lag != v.DurabilityLag || v.Horizon.Pruned == 0 {
		t.Fatalf("sicost_wal with the device stalled: %+v", v)
	}
	scan := func(cut uint64) (int64, error) {
		v := int64(-1)
		err := db.ScanAsOf("T", cut, func(_ core.Value, rec core.Record) bool {
			v = rec[1].Int64()
			return true
		})
		return v, err
	}
	if v, err := scan(durableCut); err != nil || v != 200 {
		t.Fatalf("ScanAsOf(DurableSeq) = %d, %v; want 200", v, err)
	}
	if v, err := scan(durableCut + 50); err != nil || v != 250 {
		t.Fatalf("ScanAsOf(DurableSeq+50) = %d, %v; want 250", v, err)
	}
	if _, err := scan(durableCut - 1); !errors.Is(err, core.ErrSnapshotTooOld) {
		t.Fatalf("ScanAsOf below the horizon: %v, want ErrSnapshotTooOld", err)
	}
	dev.Open()
}

// TestStressCheckpointUnderOverwriteStorm: checkpoints stream their
// rows while writers overwrite — and prune — a handful of rows as fast
// as they can; what recovery rebuilds from the last checkpoint and the
// redo tail equals what was published.
func TestStressCheckpointUnderOverwriteStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	dev := newMemLog(t)
	db := Open(Config{WAL: wal.Config{Device: dev}})
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	// The writers stay on the first rows; the cold rest makes a
	// checkpoint's walk long enough for them to get far ahead of its cut.
	const rows, cold = 8, 4000
	tx := db.Begin()
	for k := int64(0); k < rows+cold; k++ {
		if err := tx.Insert("T", kv(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	var (
		running atomic.Int32
		commits atomic.Int64
		wg      sync.WaitGroup
	)
	for w := int64(0); w < 4; w++ {
		wg.Add(1)
		running.Add(1)
		go func(w int64) {
			defer wg.Done()
			defer running.Add(-1)
			for i := int64(1); i <= 3000; i++ {
				tx := db.Begin()
				err := tx.Update("T", core.Int((w+i)%rows), kv((w+i)%rows, w<<32|i))
				if err == nil {
					if err = tx.Commit(); err == nil {
						commits.Add(1)
					}
				} else {
					tx.Abort()
				}
				if err != nil && !core.IsRetriable(err) {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	// A checkpoint once the writers have committed ckptEvery more, and
	// maxCkpts in all. Taken back to back for as long as the writers ran,
	// each streaming every row into the in-memory log, they grew the
	// process past 1.5 GB on one processor under the race detector.
	const ckptEvery, maxCkpts = 250, 16
	for next := int64(0); running.Load() > 0 && db.CheckpointStats().Links < maxCkpts; {
		if commits.Load() < next {
			time.Sleep(100 * time.Microsecond)
			continue
		}
		next = commits.Load() + ckptEvery
		if _, err := db.Checkpoint(); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
	}
	wg.Wait()
	cs := db.CheckpointStats()
	if cs.Links < 4 {
		t.Fatalf("the storm saw too few checkpoints to mean anything: %+v", cs)
	}
	t.Logf("%d checkpoints beside %d commits", cs.Links, commits.Load())
	if hs := db.HorizonStats(); hs.Pruned == 0 {
		t.Fatalf("the storm pruned nothing: %+v", hs)
	}
	want, cut := scanT(t, db), db.CommitSeq()
	db.Close()

	// Every row a checkpoint streamed is the row as of its cut — the
	// newest commit frame at or below it that wrote the key — although
	// the writers had long pruned past it when the row was resolved.
	// (Recovery alone would not notice: the redo tail rewrites what a
	// wrong checkpoint row got wrong.)
	type write struct {
		csn uint64
		val int64
	}
	frames, _ := wal.ScanLog(logImage(t, dev))
	writes := map[int64][]write{}
	for _, f := range frames {
		if f.Commit != nil {
			for _, r := range f.Commit.Rows {
				writes[r.Key.Int64()] = append(writes[r.Key.Int64()], write{f.Commit.CSN, r.Rec[1].Int64()})
			}
		}
	}
	ckptRows := 0
	for _, f := range frames {
		if f.CkptEnd != nil && f.CkptEnd.Rows != rows+cold {
			t.Fatalf("checkpoint at cut %d streamed %d rows of %d", f.CkptEnd.CSN, f.CkptEnd.Rows, rows+cold)
		}
		if f.CkptRows == nil {
			continue
		}
		for _, r := range f.CkptRows.Rows {
			var asOf write
			for _, w := range writes[r.Key.Int64()] {
				if w.csn <= f.CkptRows.CSN {
					asOf = w
				}
			}
			if r.CSN != asOf.csn || r.Rec[1].Int64() != asOf.val {
				t.Fatalf("checkpoint at cut %d streamed key %v as %v @%d, the log says %d @%d",
					f.CkptRows.CSN, r.Key, r.Rec, r.CSN, asOf.val, asOf.csn)
			}
			ckptRows++
		}
	}
	if ckptRows == 0 {
		t.Fatal("no checkpoint row to check")
	}

	db2, rep, err := Recover(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rep.Log.Checkpoint == nil || rep.HighCSN != cut {
		t.Fatalf("recovered CSN %d (checkpoint %v), want %d from a checkpoint", rep.HighCSN, rep.Log.Checkpoint != nil, cut)
	}
	got := scanT(t, db2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d rows, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d: recovered %d, published %d", k, got[k], v)
		}
	}
}

// TestHeapBoundedUnderOverwrites: the version store forgets. 200k
// commits on a 100-row hotspot leave the heap where 20k left it.
func TestHeapBoundedUnderOverwrites(t *testing.T) {
	if testing.Short() {
		t.Skip("200k commits")
	}
	db := Open(Config{})
	defer db.Close()
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	const rows = 100
	tx := db.Begin()
	for k := int64(0); k < rows; k++ {
		if err := tx.Insert("T", kv(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	heapAfter := func(from, to int64) uint64 {
		for i := from; i < to; i++ {
			commitUpdate(t, db, i%rows, i)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	at20k := heapAfter(0, 20000)
	at200k := heapAfter(20000, 200000)
	if at200k > 2*at20k {
		t.Fatalf("HeapInuse %d KB after 200k commits, %d KB after 20k: versions are being kept", at200k>>10, at20k>>10)
	}
	if hs := db.HorizonStats(); hs.Pruned < 199000 {
		t.Fatalf("pruned %d versions of 200k overwrites", hs.Pruned)
	}
}
