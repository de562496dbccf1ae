package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sicost/internal/core"
	"sicost/internal/faultinject"
)

func durableCommit(w *WAL, csn uint64) error {
	return w.Commit(&Record{
		TxID: csn + 100, CSN: csn,
		Rows: []RowImage{{Table: "t", Key: core.Int(int64(csn)), Rec: core.Record{core.Int(int64(csn))}}},
	})
}

func TestDurableCommitPersistsDecodableFrames(t *testing.T) {
	dev := newTestLog(t)
	w := New(Config{Device: dev})
	defer w.Close()

	for csn := uint64(1); csn <= 3; csn++ {
		if err := durableCommit(w, csn); err != nil {
			t.Fatal(err)
		}
	}
	b := logImage(t, dev)
	frames, valid := ScanLog(b)
	if valid != len(b) {
		t.Fatalf("device holds a torn log after clean commits: %d of %d bytes valid", valid, len(b))
	}
	if len(frames) != 3 {
		t.Fatalf("decoded %d frames, want 3", len(frames))
	}
	for i, f := range frames {
		if f.Commit == nil || f.Commit.CSN != uint64(i+1) {
			t.Fatalf("frame %d: %+v, want commit CSN %d", i, f, i+1)
		}
	}
	if s := w.Stats(); s.Bytes != dev.Size() || s.Records != 3 {
		t.Fatalf("stats %+v disagree with device size %d", s, dev.Size())
	}
}

func TestInjectedFailureKeepsDeviceUntouched(t *testing.T) {
	dev := newTestLog(t)
	w := New(Config{Device: dev})
	reg := faultinject.New(1)
	w.SetFaults(reg)
	defer w.Close()
	boom := errors.New("disk on fire")
	if err := reg.Arm(faultinject.Spec{Point: FaultFlush, Err: boom}); err != nil {
		t.Fatal(err)
	}
	if err := durableCommit(w, 1); !errors.Is(err, boom) {
		t.Fatalf("commit = %v, want injected error", err)
	}
	if dev.Size() != 0 {
		t.Fatalf("failed flush wrote %d bytes to the device", dev.Size())
	}
	if s := w.Stats(); s.FailedFlushes != 1 || s.Syncs != 0 {
		t.Fatalf("stats = %+v", s)
	}
	// An injected failure is transient, not a crash: the WAL recovers.
	reg.Disarm(FaultFlush)
	if err := durableCommit(w, 2); err != nil {
		t.Fatalf("after clearing: %v", err)
	}
	if w.Broken() != nil {
		t.Fatalf("transient failure bricked the WAL: %v", w.Broken())
	}
}

// TestFlushCrashTearsAndBricks is the wal/flush ActPanic regression
// test: an injected mid-flush crash must not kill the process (the
// panic fires on the background flush goroutine, where it is
// unrecoverable by any caller), must fail the batch, leave at most a
// strict prefix of the batch's first frame on the device, and brick the
// WAL until recovery.
func TestFlushCrashTearsAndBricks(t *testing.T) {
	dev := newTestLog(t)
	w := New(Config{Device: dev})
	reg := faultinject.New(3)
	w.SetFaults(reg)
	defer w.Close()

	if err := durableCommit(w, 1); err != nil {
		t.Fatal(err)
	}
	cleanSize := dev.Size()

	if err := reg.Arm(faultinject.Spec{Point: FaultFlush, Count: 1, Action: faultinject.ActPanic}); err != nil {
		t.Fatal(err)
	}
	err := durableCommit(w, 2)
	if !errors.Is(err, core.ErrInjected) {
		t.Fatalf("crashed commit = %v, want ErrInjected", err)
	}
	if w.Broken() == nil {
		t.Fatal("mid-flush crash did not brick the WAL")
	}
	if s := w.Stats(); s.FailedFlushes != 1 || s.Records != 1 {
		t.Fatalf("stats after crash = %+v", s)
	}

	// The device may have gained a torn prefix, but never a full new
	// frame: the unacknowledged commit must not be durable.
	b := logImage(t, dev)
	frames, valid := ScanLog(b)
	if len(frames) != 1 {
		t.Fatalf("device decodes %d frames after crash, want the 1 acked commit", len(frames))
	}
	if valid != int(cleanSize) {
		t.Fatalf("valid prefix %d, want %d (the pre-crash log)", valid, cleanSize)
	}

	// Bricked: the fault is exhausted, yet commits still fail, with the
	// sticky crash error — only Recover may bring the engine back.
	if err := durableCommit(w, 3); !errors.Is(err, core.ErrInjected) {
		t.Fatalf("commit on bricked WAL = %v, want the sticky crash error", err)
	}

	// And the torn image recovers to exactly the acked history.
	info, rerr := Recover(dev)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(info.Commits) != 1 || info.Commits[0].CSN != 1 || info.HighCSN != 1 {
		t.Fatalf("recovery after crash: %+v", info)
	}
}

// errDevice fails every operation after a configurable number of
// appends; it models a dying disk rather than an injected fault.
type errDevice struct {
	*SegmentLog
	fail bool
}

func (d *errDevice) Append(b []byte) error {
	if d.fail {
		return fmt.Errorf("I/O error")
	}
	return d.SegmentLog.Append(b)
}

func TestDeviceErrorBricksWAL(t *testing.T) {
	dev := &errDevice{SegmentLog: newTestLog(t)}
	w := New(Config{Device: dev})
	defer w.Close()
	if err := durableCommit(w, 1); err != nil {
		t.Fatal(err)
	}
	dev.fail = true
	if err := durableCommit(w, 2); err == nil {
		t.Fatal("commit succeeded on a failing device")
	}
	if w.Broken() == nil {
		t.Fatal("device error did not brick the WAL (fsyncgate discipline)")
	}
	dev.fail = false
	if err := durableCommit(w, 3); err == nil {
		t.Fatal("bricked WAL accepted a commit after the device 'recovered'")
	}
}

// parkedAppendDevice parks one Append — signalling entered — until the
// WAL it serves reports broken, then fails it: a window's append that
// passed the broken check while the log was healthy and reaches a dying
// device after something else has already bricked the WAL.
type parkedAppendDevice struct {
	*SegmentLog
	w       *WAL
	entered chan struct{}
	err     error
}

func (d *parkedAppendDevice) Append([]byte) error {
	close(d.entered)
	for d.w.Broken() == nil {
		time.Sleep(50 * time.Microsecond)
	}
	return d.err
}

// TestControlAppendKeepsFirstBrickCause is the first-cause-wins
// regression test: the schema append used to assign the sticky error
// unconditionally, so a schema frame failing on a WAL that bricked
// while it was in flight replaced the original cause — the one an
// operator needs — with its own. Every device user now bricks under the
// device mutex the parked schema window holds, so none can brick the log
// in that window's flight: the test bricks it directly, and what it pins
// is that neither the window's write nor the verdict of its control
// record overwrites a cause already set.
func TestControlAppendKeepsFirstBrickCause(t *testing.T) {
	first, second := errors.New("earlier failure: EIO"), errors.New("write: ENOSPC")
	dev := &parkedAppendDevice{SegmentLog: newTestLog(t), entered: make(chan struct{}), err: second}
	w := New(Config{Device: dev})
	dev.w = w
	defer w.Close()

	s := testSchema()
	schemaErr := make(chan error, 1)
	go func() { schemaErr <- sequenced(w, Control(EncodeSchema(&s))) }()
	<-dev.entered

	w.brick(first)
	if err := <-schemaErr; !errors.Is(err, second) {
		t.Fatalf("schema frame = %v, want its own device error", err)
	}
	if !errors.Is(w.Broken(), first) {
		t.Fatalf("Broken() = %v after the failing schema append, want the first cause %v", w.Broken(), first)
	}
}

func TestAppendSchemaPersistsDDL(t *testing.T) {
	dev := newTestLog(t)
	w := New(Config{Device: dev})
	defer w.Close()
	s := testSchema()
	if err := sequenced(w, Control(EncodeSchema(&s))); err != nil {
		t.Fatal(err)
	}
	b := logImage(t, dev)
	frames, _ := ScanLog(b)
	if len(frames) != 1 || frames[0].Schema == nil || frames[0].Schema.Name != "T" {
		t.Fatalf("DDL frame not persisted: %+v", frames)
	}
	if st := w.Stats(); st.Syncs != 1 || st.Records != 0 {
		t.Fatalf("stats = %+v, want the frame synced and no commit record counted", st)
	}
	// Without a device the engine logs no DDL: TestReadOnlyCommitSkipsWAL.
}

// TestDurableCommitStress races committers against injected transient
// failures and a final Close on a device-attached WAL (run under -race
// via the Makefile's race target). Every commit must get exactly one
// verdict, and the device must end with a fully valid log containing
// exactly the acknowledged commits.
func TestDurableCommitStress(t *testing.T) {
	dev := newTestLog(t)
	w := New(Config{Device: dev, MaxBatch: 4})
	reg := faultinject.New(5)
	w.SetFaults(reg)

	const committers = 8
	const perCommitter = 30
	var wg sync.WaitGroup
	acked := make(chan uint64, committers*perCommitter)
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCommitter; i++ {
				csn := uint64(c*1000 + i + 1)
				if err := durableCommit(w, csn); err == nil {
					acked <- csn
				}
			}
		}(c)
	}
	var fg sync.WaitGroup
	fg.Add(1)
	go func() {
		defer fg.Done()
		boom := errors.New("transient")
		for i := 0; i < 20; i++ {
			if err := reg.Arm(faultinject.Spec{Point: FaultFlush, Err: boom}); err != nil {
				t.Error(err)
			}
			time.Sleep(50 * time.Microsecond)
			reg.Disarm(FaultFlush)
			time.Sleep(150 * time.Microsecond)
		}
	}()
	wg.Wait()
	fg.Wait()
	w.Close()
	close(acked)

	want := map[uint64]bool{}
	for csn := range acked {
		want[csn] = true
	}
	b := logImage(t, dev)
	frames, valid := ScanLog(b)
	if valid != len(b) {
		t.Fatalf("log torn after clean close: %d of %d bytes valid", valid, len(b))
	}
	got := map[uint64]bool{}
	for _, f := range frames {
		if f.Commit == nil {
			t.Fatalf("non-commit frame in stress log: %+v", f)
		}
		got[f.Commit.CSN] = true
	}
	// Durability: every acked commit is on the device. (The converse —
	// a durable but unacked commit — is possible only for records whose
	// flush group completed while Close raced, which cannot happen here:
	// Close runs after every committer returned.)
	for csn := range want {
		if !got[csn] {
			t.Fatalf("acked commit %d missing from the device", csn)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("device holds %d commits, acked %d — unacked commit became durable", len(got), len(want))
	}
	if s := w.Stats(); int(s.Records) != len(want) {
		t.Fatalf("stats records %d, acked %d", s.Records, len(want))
	}
}
