package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"sicost/internal/core"
	"sicost/internal/faultinject"
	"sicost/internal/trace"
	"sicost/internal/wal"
)

// TestCheckpointChainRecovery takes three successive checkpoints with
// commits between them, and a fourth with nothing committed since the
// third, which must write nothing. Recovery restores the last one, replays
// nothing it already covers, and reproduces the exact final state.
func TestCheckpointChainRecovery(t *testing.T) {
	dev := newMemLog(t)
	db := openDurableKV(t, dev) // rows {1:100, 2:200} at CSN 1
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitUpdate(t, db, 1, 111)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitUpdate(t, db, 2, 222)
	if cut, err := db.Checkpoint(); err != nil || cut != 3 {
		t.Fatalf("third checkpoint: cut %d err %v, want cut 3", cut, err)
	}
	size := dev.Size()
	if cut, err := db.Checkpoint(); err != nil || cut != 3 || dev.Size() != size {
		t.Fatalf("idle checkpoint: cut %d err %v, log %d → %d bytes; want cut 3 and nothing written",
			cut, err, size, dev.Size())
	}
	if cs := db.CheckpointStats(); cs.Links != 3 {
		t.Fatalf("checkpoint stats: %+v, want 3 completed", cs)
	}
	db.Close()

	db2, rep, err := Recover(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rep.Log.Checkpoint == nil || rep.Log.Checkpoint.CSN != 3 || rep.CheckpointRows != 2 {
		t.Fatalf("restored %+v (%d rows), want cut 3 with 2 rows", rep.Log.Checkpoint, rep.CheckpointRows)
	}
	if rep.ReplayedCommits != 0 {
		t.Fatalf("replayed %d commits, want 0 — every commit is inside the checkpoint", rep.ReplayedCommits)
	}
	if got := scanT(t, db2); got[1] != 111 || got[2] != 222 || len(got) != 2 {
		t.Fatalf("recovered state %v, want {1:111 2:222}", got)
	}
	if db2.CommitSeq() != 3 {
		t.Fatalf("recovered CSN %d, want 3", db2.CommitSeq())
	}
}

// TestCheckpointTornLastCheckpoint is the fallback contract at the
// engine level: the log is cut at EVERY byte inside the final
// checkpoint, and each truncation must recover to the exact pre-crash
// state — the incomplete checkpoint never partially applies, and the
// commits it covered are replayed as redo from the previous checkpoint's
// cut instead.
func TestCheckpointTornLastCheckpoint(t *testing.T) {
	dev := newMemLog(t)
	db := openDurableKV(t, dev)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err) // cut 1
	}
	commitUpdate(t, db, 1, 111)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err) // cut 2
	}
	commitUpdate(t, db, 2, 222)
	before := dev.Size()
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err) // cut 3 — the one we tear
	}
	after := dev.Size()
	db.Close()
	full := logImage(t, dev)

	for cut := before; cut < after; cut++ {
		torn := newMemLog(t, wal.SegmentData{Data: full[:cut]})
		db2, rep, rerr := Recover(torn, Config{})
		if rerr != nil {
			t.Fatalf("cut %d: %v", cut, rerr)
		}
		if rep.Log.Checkpoint == nil || rep.Log.Checkpoint.CSN != 2 {
			t.Fatalf("cut %d: restored %+v, want fallback to cut 2", cut, rep.Log.Checkpoint)
		}
		if rep.ReplayedCommits != 1 {
			t.Fatalf("cut %d: replayed %d commits, want commit 3 as redo again", cut, rep.ReplayedCommits)
		}
		if got := scanT(t, db2); got[1] != 111 || got[2] != 222 || len(got) != 2 {
			t.Fatalf("cut %d: recovered state %v, want {1:111 2:222}", cut, got)
		}
		db2.Close()
	}
}

// TestCheckpointAfterRecoveryRetires: a recovered instance knows where
// its log may be cut as soon as it writes a checkpoint of its own. The
// first checkpoint after recovering a multi-segment log retires the
// segments in front of it, and the bounded log alone recovers the
// published state.
func TestCheckpointAfterRecoveryRetires(t *testing.T) {
	dev := newMemLog(t)
	db := openDurableKV(t, dev)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 40; i++ {
		commitUpdate(t, db, 1+i%2, i)
	}
	db.Close()
	if n := dev.SegmentCount(); n < 3 {
		t.Fatalf("log has %d segments, want several to retire", n)
	}

	db2, rep, err := Recover(dev, Config{RetireSegments: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Log.Checkpoint == nil || rep.ReplayedCommits == 0 {
		t.Fatalf("recovered %+v with %d commits replayed, want a checkpoint and redo", rep.Log.Checkpoint, rep.ReplayedCommits)
	}
	commitUpdate(t, db2, 1, 999)
	if _, err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if ws := db2.WAL().Stats(); ws.RetiredSegments == 0 {
		t.Fatalf("the first checkpoint after recovery retired nothing: %+v", ws)
	}
	want, seq := scanT(t, db2), db2.CommitSeq()
	db2.Close()

	db3, _, err := Recover(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if got := scanT(t, db3); len(got) != len(want) || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("bounded log recovered %v, want %v", got, want)
	}
	if db3.CommitSeq() != seq {
		t.Fatalf("bounded log recovered CSN %d, want %d", db3.CommitSeq(), seq)
	}
}

// TestCheckpointSchedulerRetiresSegments runs the whole retention loop
// live: the log-growth scheduler takes checkpoints on its own, covered
// segments are deleted while commits keep flowing — and the surviving
// directory alone recovers the exact final state. This is the
// bounded-log property -retire exists for.
func TestCheckpointSchedulerRetiresSegments(t *testing.T) {
	walDir := t.TempDir()
	sl, err := wal.OpenSegmentLog(walDir, 2048)
	if err != nil {
		t.Fatal(err)
	}
	db := Open(Config{
		WAL:                wal.Config{Device: sl},
		CheckpointLogBytes: 4096,
		RetireSegments:     true,
	})
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for k := int64(1); k <= 4; k++ {
		if err := tx.Insert("T", kv(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	i := int64(0)
	for {
		commitUpdate(t, db, 1+i%4, i)
		i++
		ws := db.WAL().Stats()
		if ws.RetiredSegments > 0 && db.CheckpointStats().Links > 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no retirement after %d commits: wal %+v ckpt %+v", i, ws, db.CheckpointStats())
		}
	}
	final := scanT(t, db)
	preSeq := db.CommitSeq()
	db.Close()

	sl2, err := wal.OpenSegmentLog(walDir, 2048)
	if err != nil {
		t.Fatal(err)
	}
	db2, rep, err := Recover(sl2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rep.Log.Checkpoint == nil {
		t.Fatal("retired log recovered without a checkpoint — retirement outran the checkpoint")
	}
	if got := scanT(t, db2); len(got) != len(final) {
		t.Fatalf("recovered %d rows, want %d", len(got), len(final))
	} else {
		for k, v := range final {
			if got[k] != v {
				t.Fatalf("recovered state %v, want %v", got, final)
			}
		}
	}
	if db2.CommitSeq() != preSeq {
		t.Fatalf("recovered CSN %d, want %d", db2.CommitSeq(), preSeq)
	}
}

// TestCheckpointFailureReleasesPin: a checkpoint whose second rows batch
// fails to append returns the error and leaves no pin in the snapshot
// horizon behind it, so pruning is not held back for ever.
func TestCheckpointFailureReleasesPin(t *testing.T) {
	dev, err := wal.NewMemSegmentLog(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	reg := faultinject.New(1)
	db := Open(Config{WAL: wal.Config{Device: dev}, Faults: reg})
	defer db.Close()
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for k := int64(0); k < 3*ckptBatch; k++ {
		if err := tx.Insert("T", kv(k, k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := reg.Arm(faultinject.Spec{Point: wal.FaultCkptRows, After: 1, Count: 1, Action: faultinject.ActError}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); !errors.Is(err, core.ErrInjected) {
		t.Fatalf("Checkpoint = %v, want the injected failure of the second batch", err)
	}
	db.hz.mu.Lock()
	pins := slices.Clone(db.hz.pins)
	db.hz.mu.Unlock()
	if len(pins) != 0 {
		t.Fatalf("pins left after the failed checkpoint: %v", pins)
	}
}

// TestOrderingCommitPassesPendingCheckpoint: a commit that arrives while
// a checkpoint waits for its cut is not held behind it. Commit A is in a
// long simulated sync when a checkpoint starts and commit B begins; B's
// record must reach the log queue during A's sync, not after A's window
// is flushed and A published.
func TestOrderingCommitPassesPendingCheckpoint(t *testing.T) {
	const syncLatency = 150 * time.Millisecond
	db := Open(Config{Mode: core.SnapshotFUW, WAL: wal.Config{Device: newMemLog(t), FsyncLatency: syncLatency}})
	defer db.Close()
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	seed := db.Begin()
	for k := int64(1); k <= 2; k++ {
		if err := seed.Insert("T", kv(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	rec := trace.New(trace.Options{ShardCap: 1 << 10})
	db.SetTracer(rec)

	update := func(tx *Tx, k int64) error {
		if err := tx.Update("T", core.Int(k), kv(k, 1)); err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit()
	}
	errs := make(chan error, 3)
	go func() { errs <- update(db.Begin(), 1) }() // A
	// A's record is outstanding from its enqueue to its verdict, and the
	// device was idle, so its sync starts at its arrival.
	for _, out := db.WAL().DurableWatermark(); !out; _, out = db.WAL().DurableWatermark() {
		time.Sleep(time.Millisecond)
	}
	go func() {
		_, err := db.Checkpoint()
		errs <- err
	}()
	// Long enough for the checkpoint to queue up for its cut.
	time.Sleep(syncLatency / 10)
	b := db.Begin()
	go func() { errs <- update(b, 2) }()
	for range 3 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	var bQueued, aFlushed int64
	for _, ev := range rec.Drain() {
		switch {
		case ev.Kind == trace.EvWALCommit && ev.Tx == b.ID():
			bQueued = ev.TS
		case ev.Kind == trace.EvWALFlush && aFlushed == 0:
			aFlushed = ev.TS
		}
	}
	if bQueued == 0 || aFlushed == 0 {
		t.Fatalf("trace lacks B's enqueue (%d) or A's flush (%d); %d events dropped", bQueued, aFlushed, rec.Dropped())
	}
	if bQueued > aFlushed {
		t.Fatalf("B was queued %v after A's window flushed: it waited for the checkpoint",
			time.Duration(bQueued-aFlushed))
	}
}

// TestStressLogOrderUnderCheckpointsAndDDL: sync and async committers,
// the checkpoint scheduler retiring segments and a stream of CreateTables
// share one log, and its byte stream is in CSN order — both everything
// appended to the device and the image that survives retirement. Every
// append is a flush window's, followed by its sync before the next
// append: a checkpoint's frames included, nothing reaches the device
// beside the flush loop.
func TestStressLogOrderUnderCheckpointsAndDDL(t *testing.T) {
	dev := &appendLog{SegmentLog: newMemLog(t)}
	db := Open(Config{WAL: wal.Config{Device: dev}, CheckpointLogBytes: 4096, RetireSegments: true})
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	const rows = 64
	seed := db.Begin()
	for k := int64(0); k < rows; k++ {
		if err := seed.Insert("T", kv(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := int64(0); w < 4; w++ {
		wg.Add(1)
		go func(w int64) {
			defer wg.Done()
			for i := int64(1); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx := db.Begin()
				tx.SetAsync(w%2 == 1)
				k := (w + 4*i) % rows
				err := tx.Update("T", core.Int(k), kv(k, i))
				if err == nil {
					err = tx.Commit()
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
	tables := []string{"T"}
	deadline := time.Now().Add(20 * time.Second)
	for len(tables) <= 16 || db.CheckpointStats().Links < 8 {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatalf("%d tables and %+v after 20 s", len(tables), db.CheckpointStats())
		}
		name := fmt.Sprintf("R%d", len(tables))
		if err := db.CreateTable(kvSchema(name)); err != nil {
			t.Fatal(err)
		}
		tables = append(tables, name)
		tx := db.Begin()
		if err := tx.Insert(name, kv(1, 1)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	retired := db.WAL().Stats().RetiredSegments
	db.Close()
	if retired == 0 {
		t.Fatal("the storm retired no segment")
	}
	for i := 0; i < len(dev.calls); i += 2 {
		if dev.calls[i] != 'A' || i+1 == len(dev.calls) || dev.calls[i+1] != 'S' {
			t.Fatalf("device call %d of %d is not an Append followed by its Sync: %q", i, len(dev.calls),
				dev.calls[max(0, i-4):min(len(dev.calls), i+4)])
		}
	}

	all, _ := wal.ScanLog(dev.stream)
	if markers, ddl := checkLogOrder(t, "appended", all, tables); markers < 8 || ddl != len(tables) {
		t.Fatalf("the log was given %d begin markers and %d DDL frames, want 8 or more and %d", markers, ddl, len(tables))
	}
	surviving, _ := wal.ScanLog(logImage(t, dev))
	if markers, _ := checkLogOrder(t, "surviving", surviving, tables); markers == 0 {
		t.Fatal("the surviving log holds no begin marker")
	}
}

// appendLog is a log device that also keeps every byte appended to it,
// in order, retired segments included, and the order of its Append and
// Sync calls ('A', 'S').
type appendLog struct {
	*wal.SegmentLog
	stream []byte // appended under the WAL's device mutex
	calls  []byte // likewise
}

func (d *appendLog) Append(b []byte) error {
	d.stream = append(d.stream, b...)
	d.calls = append(d.calls, 'A')
	return d.SegmentLog.Append(b)
}

func (d *appendLog) Sync() error {
	d.calls = append(d.calls, 'S')
	return d.SegmentLog.Sync()
}

// checkLogOrder asserts that frames, a byte stream of the log, is in CSN
// order: commit CSNs strictly increase, every begin marker has the
// commits at or below its cut in front of it and the rest behind it, and
// a marker embeds a table's schema exactly when the table's DDL frame
// precedes it or is not in the stream (a stream that survived
// retirement lost only frames in front of its every marker). It returns
// how many begin markers and DDL frames the stream holds.
func checkLogOrder(t *testing.T, what string, frames []wal.Frame, tables []string) (markers, ddl int) {
	t.Helper()
	ddlAt := map[string]int{}
	for i, f := range frames {
		if f.Schema != nil {
			ddlAt[f.Schema.Name] = i
		}
	}
	var lastCSN, cut uint64
	for i, f := range frames {
		switch {
		case f.Commit != nil:
			if f.Commit.CSN <= lastCSN {
				t.Fatalf("%s frame %d: commit CSN %d after CSN %d", what, i, f.Commit.CSN, lastCSN)
			}
			if f.Commit.CSN <= cut {
				t.Fatalf("%s frame %d: commit CSN %d behind the begin marker of cut %d", what, i, f.Commit.CSN, cut)
			}
			lastCSN = f.Commit.CSN
		case f.CkptBegin != nil:
			markers++
			cut = f.CkptBegin.CSN
			if lastCSN > cut {
				t.Fatalf("%s frame %d: begin marker of cut %d behind commit CSN %d", what, i, cut, lastCSN)
			}
			embedded := map[string]bool{}
			for _, s := range f.CkptBegin.Schemas {
				embedded[s.Name] = true
			}
			for _, name := range tables {
				at, logged := ddlAt[name]
				if precedes := !logged || at < i; precedes != embedded[name] {
					t.Fatalf("%s frame %d, marker of cut %d: table %s embedded %v, DDL frame in front %v",
						what, i, cut, name, embedded[name], precedes)
				}
			}
		}
	}
	return markers, len(ddlAt)
}
