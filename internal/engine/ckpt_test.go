package engine

import (
	"errors"
	"slices"
	"testing"
	"time"

	"sicost/internal/core"
	"sicost/internal/faultinject"
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
