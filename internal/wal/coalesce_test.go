package wal

import (
	"errors"
	"sync"
	"testing"
	"time"

	"sicost/internal/core"
	"sicost/internal/faultinject"
)

// gateDevice blocks its first Append until released, so a test can pin
// records into a specific flush window: window 1 is whatever is in
// flight when the gate closes the loop, and everything enqueued while
// it is blocked lands in window 2.
type gateDevice struct {
	*SegmentLog
	entered chan struct{} // closed when the first Append begins
	release chan struct{} // the first Append blocks until this closes
	first   sync.Once
}

func newGateDevice(t *testing.T) *gateDevice {
	return &gateDevice{SegmentLog: newTestLog(t), entered: make(chan struct{}), release: make(chan struct{})}
}

func (d *gateDevice) Append(b []byte) error {
	d.first.Do(func() {
		close(d.entered)
		<-d.release
	})
	return d.SegmentLog.Append(b)
}

func enq(t *testing.T, w *WAL, csn uint64) <-chan error {
	t.Helper()
	return enqueue(t, w, &Record{
		TxID: csn + 100, CSN: csn,
		Rows: []RowImage{{Table: "t", Key: core.Int(int64(csn)), Rec: core.Record{core.Int(int64(csn))}}},
	})
}

// TestWindowSharesOneSync pins the group-commit contract: every record
// queued while a sync is in flight shares the next window's one append
// and one device sync.
func TestWindowSharesOneSync(t *testing.T) {
	dev := newGateDevice(t)
	w := New(Config{Device: dev})
	defer w.Close()

	d1 := enq(t, w, 1)
	<-dev.entered
	var dones []<-chan error
	for csn := uint64(2); csn <= 7; csn++ {
		dones = append(dones, enq(t, w, csn))
	}
	close(dev.release)
	if err := <-d1; err != nil {
		t.Fatal(err)
	}
	for i, d := range dones {
		if err := <-d; err != nil {
			t.Fatalf("record %d: %v", i+2, err)
		}
	}

	s := w.Stats()
	// Window 1: one record. Window 2: the six that queued behind it.
	if s.Syncs != 2 || s.Records != 7 {
		t.Fatalf("stats = %+v, want Syncs=2 Records=7", s)
	}
	if got := s.CommitsPerSync(); got != 3.5 {
		t.Fatalf("CommitsPerSync = %v, want 3.5", got)
	}
	if s.Bytes != dev.Size() {
		t.Fatalf("Bytes %d != device size %d", s.Bytes, dev.Size())
	}
	if csn, outstanding := w.DurableWatermark(); csn != 7 || outstanding {
		t.Fatalf("watermark = %d/%v, want 7/false", csn, outstanding)
	}
}

// TestMaxBatchBoundsRecordsPerSync pins the ablation arm: MaxBatch caps
// the commit records one device sync makes durable, so a backlog drains
// in MaxBatch-sized windows, each paying its own sync.
func TestMaxBatchBoundsRecordsPerSync(t *testing.T) {
	dev := newGateDevice(t)
	w := New(Config{Device: dev, MaxBatch: 2})
	defer w.Close()

	d1 := enq(t, w, 1)
	<-dev.entered
	var dones []<-chan error
	for csn := uint64(2); csn <= 7; csn++ {
		dones = append(dones, enq(t, w, csn))
	}
	close(dev.release)
	if err := <-d1; err != nil {
		t.Fatal(err)
	}
	for _, d := range dones {
		if err := <-d; err != nil {
			t.Fatal(err)
		}
	}
	// Window 1: one record; then six records in three windows of two.
	if s := w.Stats(); s.Syncs != 4 || s.Records != 7 {
		t.Fatalf("stats = %+v, want one sync per 2-record window (4)", s)
	}
}

// TestFailedWindowCountsOnce is the Syncs/Bytes accounting regression
// test: a window rejected by an injected device error counts exactly
// once — in FailedFlushes — contributes nothing to Syncs, Records or
// Bytes, puts no byte on the device, and leaves the WAL healthy for the
// windows behind it.
func TestFailedWindowCountsOnce(t *testing.T) {
	dev := newGateDevice(t)
	w := New(Config{Device: dev, MaxBatch: 2})
	reg := faultinject.New(11)
	w.SetFaults(reg)
	defer w.Close()

	// Skip window 1, then fail exactly the next window.
	if err := reg.Arm(faultinject.Spec{Point: FaultFlush, After: 1, Count: 1, Action: faultinject.ActError}); err != nil {
		t.Fatal(err)
	}

	d1 := enq(t, w, 1)
	<-dev.entered
	var dones []<-chan error
	for csn := uint64(2); csn <= 7; csn++ {
		dones = append(dones, enq(t, w, csn))
	}
	close(dev.release)
	if err := <-d1; err != nil {
		t.Fatal(err)
	}
	// Backlog windows: {2,3} fails (injected), {4,5} and {6,7} succeed.
	for i, d := range dones {
		csn := uint64(i + 2)
		err := <-d
		if csn <= 3 {
			if !errors.Is(err, core.ErrInjected) {
				t.Fatalf("record %d = %v, want ErrInjected", csn, err)
			}
		} else if err != nil {
			t.Fatalf("record %d: %v", csn, err)
		}
	}

	s := w.Stats()
	if s.FailedFlushes != 1 {
		t.Fatalf("FailedFlushes = %d, want 1", s.FailedFlushes)
	}
	if s.Syncs != 3 || s.Records != 5 {
		t.Fatalf("stats = %+v, want Syncs=3 Records=5", s)
	}
	// The sharp double-count check: accounted bytes must equal what the
	// device actually holds — the failed window's frames never reached it.
	if s.Bytes != dev.Size() {
		t.Fatalf("Bytes %d != device size %d (failed window double-counted)", s.Bytes, dev.Size())
	}
	// The injected error is transient, not a crash; the WAL stays alive
	// and the device log stays fully decodable.
	if w.Broken() != nil {
		t.Fatalf("transient window failure bricked the WAL: %v", w.Broken())
	}
	b := logImage(t, dev)
	frames, valid := ScanLog(b)
	if valid != len(b) || len(frames) != 5 {
		t.Fatalf("device: %d frames, %d/%d valid — want the 5 acked commits", len(frames), valid, len(b))
	}
	got := map[uint64]bool{}
	for _, f := range frames {
		got[f.Commit.CSN] = true
	}
	for _, csn := range []uint64{1, 4, 5, 6, 7} {
		if !got[csn] {
			t.Fatalf("acked commit %d missing from device", csn)
		}
	}
	if csn, outstanding := w.DurableWatermark(); csn != 7 || outstanding {
		t.Fatalf("watermark = %d/%v, want 7/false", csn, outstanding)
	}
}

// TestSyncCrashLosesWholeWindow pins the FaultSync ActPanic semantics:
// power dying inside the coalesced-sync window loses every unsynced
// append — no record of the window is acknowledged or durable — and the
// WAL bricks.
func TestSyncCrashLosesWholeWindow(t *testing.T) {
	dev := newTestLog(t)
	w := New(Config{Device: dev})
	reg := faultinject.New(13)
	w.SetFaults(reg)
	defer w.Close()

	if err := durableCommit(w, 1); err != nil {
		t.Fatal(err)
	}
	cleanSize := dev.Size()

	if err := reg.Arm(faultinject.Spec{Point: FaultSync, Count: 1, Action: faultinject.ActPanic}); err != nil {
		t.Fatal(err)
	}
	if err := durableCommit(w, 2); !errors.Is(err, core.ErrInjected) {
		t.Fatalf("commit through sync crash = %v, want ErrInjected", err)
	}
	if w.Broken() == nil {
		t.Fatal("sync crash did not brick the WAL")
	}
	if dev.Size() != cleanSize {
		t.Fatalf("unsynced window bytes survived the crash: %d > %d", dev.Size(), cleanSize)
	}
	if s := w.Stats(); s.FailedFlushes != 1 || s.Records != 1 || s.Syncs != 1 {
		t.Fatalf("stats = %+v", s)
	}
	info, err := Recover(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Commits) != 1 || info.HighCSN != 1 {
		t.Fatalf("recovery: %+v, want exactly the acked commit", info)
	}
}

// TestAsyncRecordFailureBricks pins the async contract: a record whose
// committer already published cannot be failed quietly — the WAL must
// brick so the engine knows the published state is no longer
// recoverable.
func TestAsyncRecordFailureBricks(t *testing.T) {
	boom := errors.New("late disk death")
	failing := func() *WAL {
		w := New(Config{Device: newTestLog(t)})
		reg := faultinject.New(1)
		w.SetFaults(reg)
		if err := reg.Arm(faultinject.Spec{Point: FaultFlush, Err: boom}); err != nil {
			t.Fatal(err)
		}
		return w
	}
	w := failing()
	defer w.Close()
	done, err := w.Enqueue(framed(w, &Record{TxID: 100, CSN: 1, Async: true,
		Rows: []RowImage{{Table: "t", Key: core.Int(1), Rec: core.Record{core.Int(1)}}}}))
	if err != nil {
		t.Fatal(err)
	}
	if ferr := <-done; !errors.Is(ferr, boom) {
		t.Fatalf("future = %v, want injected error", ferr)
	}
	if w.Broken() == nil {
		t.Fatal("failed async record did not brick the WAL")
	}
	// Sync records failing the same way do NOT brick: their committer
	// aborts instead.
	w2 := failing()
	defer w2.Close()
	done2 := enqueue(t, w2, &Record{TxID: 101, CSN: 1,
		Rows: []RowImage{{Table: "t", Key: core.Int(1), Rec: core.Record{core.Int(1)}}}})
	if ferr := <-done2; !errors.Is(ferr, boom) {
		t.Fatalf("future = %v", ferr)
	}
	if w2.Broken() != nil {
		t.Fatalf("failed sync record bricked the WAL: %v", w2.Broken())
	}
}

// TestWaitDurableCSN covers the watermark API: waiting on an
// already-durable CSN returns immediately, a future CSN blocks until
// its record resolves, and a closed WAL releases waiters with
// ErrWALClosed.
func TestWaitDurableCSN(t *testing.T) {
	dev := newTestLog(t)
	w := New(Config{Device: dev})

	if err := durableCommit(w, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurableCSN(1); err != nil {
		t.Fatalf("wait on durable CSN: %v", err)
	}

	got := make(chan error, 1)
	go func() { got <- w.WaitDurableCSN(2) }()
	if err := durableCommit(w, 2); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatalf("wait released with %v", err)
	}

	go func() { got <- w.WaitDurableCSN(99) }()
	w.Close()
	if err := <-got; !errors.Is(err, core.ErrWALClosed) {
		t.Fatalf("wait on closed WAL = %v, want ErrWALClosed", err)
	}
}

// TestCrashIsAtomicAcrossDeviceUsers: a checkpoint dying mid-batch
// (wal/ckpt-rows) never takes an acknowledged commit with it. The rows
// batch is queued while a commit's window is parked between its append
// and its sync (a delay on wal/sync); it waits for that window, which is
// acknowledged and recoverable, and the crash fails the batch's own
// window — the commit that shares it included — and bricks the WAL.
// (While rows batches were appended beside the flush loop, the crash's
// page-cache drop could take the parked window's frames, whose sync then
// acknowledged commits no longer on the device.)
func TestCrashIsAtomicAcrossDeviceUsers(t *testing.T) {
	dev := newTestLog(t)
	w := New(Config{Device: dev})
	reg := faultinject.New(17)
	w.SetFaults(reg)
	defer w.Close()
	for _, spec := range []faultinject.Spec{
		{Point: FaultSync, Count: 1, Action: faultinject.ActDelay, Delay: 50 * time.Millisecond},
		{Point: FaultCkptRows, Count: 1, Action: faultinject.ActPanic},
	} {
		if err := reg.Arm(spec); err != nil {
			t.Fatal(err)
		}
	}

	acked := make(chan error, 1)
	go func() { acked <- durableCommit(w, 1) }()
	for dev.Size() == 0 { // the window's append has reached the device
		time.Sleep(100 * time.Microsecond)
	}
	rows := Control(EncodeCkptRows(&CkptRows{CSN: 1}))
	rowsDone, err := w.Enqueue(rows)
	if err != nil {
		t.Fatal(err)
	}
	go w.Lead(rows, true)
	second := enqueue(t, w, &Record{TxID: 102, CSN: 2, Rows: []RowImage{{Table: "t", Key: core.Int(2), Rec: core.Record{core.Int(2)}}}})

	if err := <-acked; err != nil {
		t.Fatalf("commit whose window was synced before the crash = %v", err)
	}
	if err := <-rowsDone; !errors.Is(err, core.ErrInjected) {
		t.Fatalf("checkpoint rows batch through the crash = %v, want ErrInjected", err)
	}
	if err := <-second; err == nil {
		t.Fatal("a commit in the crashed window was acknowledged")
	}
	if w.Broken() == nil {
		t.Fatal("the WAL survived a crash at wal/ckpt-rows")
	}
	info, err := Recover(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Commits) != 1 || info.HighCSN != 1 {
		t.Fatalf("recovery finds %d commits up to CSN %d, want the acknowledged one", len(info.Commits), info.HighCSN)
	}
}

// TestOrderingRetireCrashAfterWindowSync is why Retire takes the device
// mutex: a crash at wal/retire drops the page cache, and were it to land
// between a window's append and its sync — parked there by a delay on
// wal/sync — the sync would then acknowledge a commit whose frame the
// crash took. Retire waits for the window's sync instead, so the
// acknowledged commit is recoverable.
func TestOrderingRetireCrashAfterWindowSync(t *testing.T) {
	dev := newTestLog(t)
	w := New(Config{Device: dev})
	reg := faultinject.New(17)
	w.SetFaults(reg)
	defer w.Close()
	csn := uint64(0)
	for dev.SegmentCount() < 3 {
		csn++
		if err := durableCommit(w, csn); err != nil {
			t.Fatal(err)
		}
	}
	for _, spec := range []faultinject.Spec{
		{Point: FaultSync, Count: 1, Action: faultinject.ActDelay, Delay: 50 * time.Millisecond},
		{Point: FaultRetire, Count: 1, Action: faultinject.ActPanic},
	} {
		if err := reg.Arm(spec); err != nil {
			t.Fatal(err)
		}
	}

	acked := make(chan error, 1)
	pre := dev.Size()
	go func() { acked <- durableCommit(w, csn+1) }()
	for dev.Size() == pre { // the window's append has reached the device
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := w.Retire(dev.CurrentSegment()); !errors.Is(err, core.ErrInjected) {
		t.Fatalf("retirement through the crash = %v, want ErrInjected", err)
	}
	if err := <-acked; err != nil {
		t.Fatalf("commit whose window the retirement waited for = %v", err)
	}
	info, err := Recover(dev)
	if err != nil {
		t.Fatal(err)
	}
	if info.HighCSN != csn+1 {
		t.Fatalf("commit %d acknowledged, but the crash dropped its frame: recovery ends at CSN %d", csn+1, info.HighCSN)
	}
}
