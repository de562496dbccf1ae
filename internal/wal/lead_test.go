package wal

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"sicost/internal/core"
	"sicost/internal/faultinject"
)

// stackDevice records, for every Append, whether want is a function on
// the calling goroutine's stack.
type stackDevice struct {
	*SegmentLog
	want  string
	mu    sync.Mutex
	calls []bool
}

func (d *stackDevice) Append(b []byte) error {
	buf := make([]byte, 16<<10)
	buf = buf[:runtime.Stack(buf, false)]
	d.mu.Lock()
	d.calls = append(d.calls, bytes.Contains(buf, []byte(d.want)))
	d.mu.Unlock()
	return d.SegmentLog.Append(b)
}

// TestCommitLeadsItsOwnFlush: with no flush running a sync commit writes
// its record from its own goroutine — WAL.Commit is on the stack of the
// device append, no goroutine is started — while an async record, whose
// committer is gone, is flushed from the background goroutine.
func TestCommitLeadsItsOwnFlush(t *testing.T) {
	dev := &stackDevice{SegmentLog: newTestLog(t), want: "wal.(*WAL).Commit"}
	w := New(Config{Device: dev})
	defer w.Close()
	before := runtime.NumGoroutine()
	for csn := uint64(1); csn <= 3; csn++ {
		if err := durableCommit(w, csn); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("sync commits changed the goroutine count from %d to %d", before, after)
	}
	done, err := w.Enqueue(&Record{TxID: 104, CSN: 4, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	w.Drain()
	if want := []bool{true, true, true, false}; !slices.Equal(dev.calls, want) {
		t.Errorf("Commit on the appending goroutine's stack: %v, want %v", dev.calls, want)
	}
	if s := w.Stats(); s.Flushes != 4 || s.LedFlushes != 3 {
		t.Errorf("stats %+v; want 4 windows, 3 of them flushed by their committer", s)
	}
}

// TestLeaderLeavesRecordsToBackground: a leader returns once its own
// record has a verdict. Records that queued behind its window and whose
// committers are not waiting to lead — a deadline-bound committer
// (Lead with wait false) and an async record — are not stranded: the
// background goroutine takes the loop over.
func TestLeaderLeavesRecordsToBackground(t *testing.T) {
	dev := newGateDevice(t)
	w := New(Config{Device: dev})
	defer w.Close()

	leader := make(chan error, 1)
	go func() { leader <- durableCommit(w, 1) }()
	<-dev.entered // the leader is inside its window's append

	bound := &Record{TxID: 102, CSN: 2}
	boundDone, err := w.Enqueue(bound)
	if err != nil {
		t.Fatal(err)
	}
	w.Lead(bound, false) // a flush is running: returns without blocking
	asyncDone, err := w.Enqueue(&Record{TxID: 103, CSN: 3, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	close(dev.release)
	for i, done := range []<-chan error{leader, boundDone, asyncDone} {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("record %d: %v", i+1, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("record %d stranded", i+1)
		}
	}
	w.Drain()
	if s := w.Stats(); s.Flushes != 2 || s.LedFlushes != 1 || s.Records != 3 {
		t.Errorf("stats %+v; want the leader's window and one background window of two records", s)
	}
	if csn, outstanding := w.DurableWatermark(); csn != 3 || outstanding {
		t.Errorf("watermark %d (outstanding %v), want 3 and none", csn, outstanding)
	}
}

// TestHeirTakesOver: a committer that may wait and finds a flush running
// blocks on the leader mutex and flushes its own record itself when the
// leader leaves; a second one finds an heir there already and is
// flushed by it.
func TestHeirTakesOver(t *testing.T) {
	dev := newGateDevice(t)
	w := New(Config{Device: dev})
	defer w.Close()

	leader := make(chan error, 1)
	go func() { leader <- durableCommit(w, 1) }()
	<-dev.entered

	heir := &Record{TxID: 102, CSN: 2}
	heirDone, err := w.Enqueue(heir)
	if err != nil {
		t.Fatal(err)
	}
	heirLed := make(chan struct{})
	go func() { w.Lead(heir, true); close(heirLed) }()
	for stop := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		w.mu.Lock()
		ok := w.heir == heir
		w.mu.Unlock()
		if ok {
			break
		}
		if time.Now().After(stop) {
			t.Fatal("the second committer never became the heir")
		}
	}
	follower := &Record{TxID: 103, CSN: 3}
	followerDone, err := w.Enqueue(follower)
	if err != nil {
		t.Fatal(err)
	}
	w.Lead(follower, true) // an heir is waiting: returns without blocking
	select {
	case <-heirLed:
		t.Fatal("the heir ran the loop while the leader was still in its window")
	default:
	}
	close(dev.release)
	for i, done := range []<-chan error{leader, heirDone, followerDone} {
		if err := <-done; err != nil {
			t.Errorf("record %d: %v", i+1, err)
		}
	}
	<-heirLed
	w.Drain()
	if s := w.Stats(); s.Flushes != 2 || s.LedFlushes != 2 || s.Records != 3 {
		t.Errorf("stats %+v; want two committer-led windows, the heir's carrying two records", s)
	}
}

// TestFaultsOnALedWindow: a window fails the same way whichever
// goroutine flushes it. An injected FaultFlush error rejects it and
// leaves the WAL healthy; a FaultSync crash bricks the WAL, nothing of
// the window is acknowledged and nothing of it survives on the device.
// The led arm commits (the committer flushes), the background arm
// enqueues a sync record and leaves it to Drain's goroutine.
func TestFaultsOnALedWindow(t *testing.T) {
	boom := errors.New("boom")
	commit := map[string]func(w *WAL, csn uint64) error{
		"led": durableCommit,
		"background": func(w *WAL, csn uint64) error {
			done, err := w.Enqueue(&Record{TxID: csn + 100, CSN: csn,
				Rows: []RowImage{{Table: "t", Key: core.Int(int64(csn)), Rec: core.Record{core.Int(int64(csn))}}}})
			if err != nil {
				return err
			}
			w.Drain()
			return <-done
		},
	}
	for name, commit := range commit {
		dev := newTestLog(t)
		w := New(Config{Device: dev})
		reg := faultinject.New(1)
		w.SetFaults(reg)
		if err := commit(w, 1); err != nil {
			t.Fatalf("%s: healthy commit: %v", name, err)
		}
		durable := len(logImage(t, dev))

		if err := reg.Arm(faultinject.Spec{Point: FaultFlush, Err: boom, Count: 1}); err != nil {
			t.Fatal(err)
		}
		if err := commit(w, 2); !errors.Is(err, boom) {
			t.Errorf("%s: FaultFlush error: verdict %v, want the injected error", name, err)
		}
		if w.Broken() != nil {
			t.Errorf("%s: a rejected window bricked the WAL: %v", name, w.Broken())
		}
		if err := commit(w, 3); err != nil {
			t.Errorf("%s: commit after a rejected window: %v", name, err)
		}
		durable3 := len(logImage(t, dev))
		if durable3 <= durable {
			t.Errorf("%s: commit 3 did not reach the device", name)
		}

		if err := reg.Arm(faultinject.Spec{Point: FaultSync, Action: faultinject.ActPanic, Count: 1}); err != nil {
			t.Fatal(err)
		}
		if err := commit(w, 4); err == nil {
			t.Errorf("%s: FaultSync crash: commit acknowledged", name)
		}
		if w.Broken() == nil {
			t.Errorf("%s: FaultSync crash did not brick the WAL", name)
		}
		if got := len(logImage(t, dev)); got != durable3 {
			t.Errorf("%s: device holds %d bytes after the crash, want the %d durable before it", name, got, durable3)
		}
		if err := commit(w, 5); err == nil {
			t.Errorf("%s: commit on a bricked WAL succeeded", name)
		}
		s := w.Stats()
		if s.Flushes != 2 || s.FailedFlushes != 2 || (name == "led") != (s.LedFlushes == 2) {
			t.Errorf("%s: stats %+v; want two windows durable and two failed", name, s)
		}
		if csn, _ := w.DurableWatermark(); csn != 3 {
			t.Errorf("%s: watermark %d, want 3", name, csn)
		}
		w.Close()
	}
}

// TestStressLeadersAndFollowers: committers of every kind at once —
// leading, waiting to lead, bound by a deadline (some of which withdraw),
// async — against a device, CSNs allocated and enqueued under one mutex
// as the engine's sequencer does. Every record gets exactly one verdict
// or is withdrawn, nothing is stranded when a leader leaves with records
// queued, Drain and Close return, and the watermark ends at the last CSN
// that was not withdrawn.
func TestStressLeadersAndFollowers(t *testing.T) {
	const workers, each = 8, 150
	w := New(Config{Device: newTestLog(t)})
	var (
		seq       sync.Mutex
		next      uint64
		withdrawn = map[uint64]bool{}
		wg        sync.WaitGroup
		futures   = make(chan (<-chan error), workers*each)
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec := &Record{TxID: uint64(g*each + i + 1), Async: (g+i)%4 == 3,
					Rows: []RowImage{{Table: "t", Key: core.Int(int64(g)), Rec: core.Record{core.Int(int64(i))}}}}
				seq.Lock()
				next++
				rec.CSN = next
				done, err := w.Enqueue(rec)
				seq.Unlock()
				if err != nil {
					t.Errorf("enqueue %d: %v", rec.CSN, err)
					return
				}
				switch {
				case rec.Async:
					futures <- done
					continue
				case (g+i)%4 == 2:
					// A committer under a deadline: it leads if nobody
					// does, never queues up to, and may give up.
					w.Lead(rec, false)
					if i%3 == 0 && w.Withdraw(rec) {
						seq.Lock()
						withdrawn[rec.CSN] = true
						seq.Unlock()
						continue
					}
				default:
					w.Lead(rec, true)
				}
				select {
				case err := <-done:
					if err != nil {
						t.Errorf("record %d: %v", rec.CSN, err)
					}
				case <-time.After(10 * time.Second):
					t.Errorf("record %d stranded", rec.CSN)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	w.Drain()
	close(futures)
	for done := range futures {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("async record: %v", err)
			}
		default:
			t.Error("Drain returned with an async record unresolved")
		}
	}
	last := next
	for withdrawn[last] {
		last--
	}
	if csn, outstanding := w.DurableWatermark(); csn != last || outstanding {
		t.Errorf("watermark %d (outstanding %v), want %d and none", csn, outstanding, last)
	}
	s := w.Stats()
	if want := int64(workers*each - len(withdrawn)); s.Records != want || s.FailedFlushes != 0 {
		t.Errorf("stats %+v; want %d records flushed, none failed", s, want)
	}
	t.Logf("%d windows, %d of them flushed by a committer", s.Flushes, s.LedFlushes)
	w.Close()
	w.mu.Lock()
	running, heir, queued := w.flusher, w.heir, len(w.pending)
	w.mu.Unlock()
	if running || heir != nil || queued != 0 {
		t.Errorf("after Close: flush loop running %v, heir %v, %d records queued", running, heir, queued)
	}
}
