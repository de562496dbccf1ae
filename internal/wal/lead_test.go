package wal

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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
	done, err := w.Enqueue(framed(w, &Record{TxID: 104, CSN: 4, Async: true}))
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
	if s := w.Stats(); s.Syncs != 4 || s.LedFlushes != 3 {
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

	bound := framed(w, &Record{TxID: 102, CSN: 2})
	boundDone, err := w.Enqueue(bound)
	if err != nil {
		t.Fatal(err)
	}
	w.Lead(bound, false) // a flush is running: returns without blocking
	asyncDone, err := w.Enqueue(framed(w, &Record{TxID: 103, CSN: 3, Async: true}))
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
	if s := w.Stats(); s.Syncs != 2 || s.LedFlushes != 1 || s.Records != 3 {
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

	heir := framed(w, &Record{TxID: 102, CSN: 2})
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
	follower := framed(w, &Record{TxID: 103, CSN: 3})
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
	if s := w.Stats(); s.Syncs != 2 || s.LedFlushes != 2 || s.Records != 3 {
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
			done, err := w.Enqueue(framed(w, &Record{TxID: csn + 100, CSN: csn,
				Rows: []RowImage{{Table: "t", Key: core.Int(int64(csn)), Rec: core.Record{core.Int(int64(csn))}}}}))
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
		if s.Syncs != 2 || s.FailedFlushes != 2 || (name == "led") != (s.LedFlushes == 2) {
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
				w.Encode(rec)
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
	t.Logf("%d windows, %d of them flushed by a committer", s.Syncs, s.LedFlushes)
	w.Close()
	w.mu.Lock()
	running, heir, queued := w.flusher, w.heir, len(w.pending)
	w.mu.Unlock()
	if running || heir != nil || queued != 0 {
		t.Errorf("after Close: flush loop running %v, heir %v, %d records queued", running, heir, queued)
	}
}

// TestSpinBudget: a committer polls for another one only where that can
// pay — a device with no simulated latency, on more than one processor —
// and everywhere else goes straight to its blocking wait without calling
// cond. A poll that never sees cond hold gives up after the budget.
func TestSpinBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	dev := newTestLog(t)
	for _, c := range []struct {
		name  string
		procs int
		cfg   Config
		spins bool
	}{
		{"bare device", 2, Config{Device: dev}, true},
		{"one processor", 1, Config{Device: dev}, false},
		{"simulated latency", 2, Config{Device: dev, FsyncLatency: time.Millisecond}, false},
		{"latency only", 2, Config{FsyncLatency: time.Millisecond}, false},
		{"no log", 2, Config{}, false},
	} {
		runtime.GOMAXPROCS(c.procs)
		w := New(c.cfg)
		calls := 0
		held := w.Spin(func() bool { calls++; return calls == 3 })
		if (w.spin > 0) != c.spins || held != c.spins || (calls > 0) != c.spins {
			t.Errorf("%s: budget %v, cond held %v after %d calls; want polling %v", c.name, w.spin, held, calls, c.spins)
		}
		if !c.spins {
			continue
		}
		start := time.Now()
		if w.Spin(func() bool { return false }) {
			t.Errorf("%s: a cond that never holds held", c.name)
		}
		if took := time.Since(start); took < w.spin {
			t.Errorf("%s: gave up after %v, before the %v budget", c.name, took, w.spin)
		}
	}
}

// slowSyncDevice takes delay over every sync, as a disk's fsync does.
type slowSyncDevice struct {
	*SegmentLog
	delay time.Duration
}

func (d *slowSyncDevice) Sync() error {
	time.Sleep(d.delay)
	return d.SegmentLog.Sync()
}

// TestSpinFollowsTheDevice: the poll is on only while the device's last
// flush window took less than the budget. Behind a slow sync every wait
// between committers is paced by the device, so Spin goes straight to the
// blocking wait without calling cond; once a window is fast again, it polls.
func TestSpinFollowsTheDevice(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	dev := &slowSyncDevice{SegmentLog: newTestLog(t), delay: 4 * spinFor}
	w := New(Config{Device: dev})
	defer w.Close()
	polls := func() bool {
		calls := 0
		w.Spin(func() bool { calls++; return true })
		return calls > 0
	}
	if !polls() {
		t.Fatal("no window flushed yet: Spin did not poll")
	}
	if err := durableCommit(w, 1); err != nil {
		t.Fatal(err)
	}
	if polls() {
		t.Errorf("last window took %v, over the %v budget: Spin polled", time.Duration(w.lastWindow.Load()), w.spin)
	}
	dev.delay = 0
	if err := durableCommit(w, 2); err != nil {
		t.Fatal(err)
	}
	if took := time.Duration(w.lastWindow.Load()); took < w.spin && !polls() {
		t.Errorf("last window took %v, under the %v budget: Spin did not poll", took, w.spin)
	}
}

// TestSpinStepsAsideForACrowd: with more transactions open than there
// are processors a poller would hold a processor a runnable committer
// needs, so Spin looks at cond once and goes to the blocking wait; with
// no more than one each, it polls.
func TestSpinStepsAsideForACrowd(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	w := New(Config{Device: newTestLog(t)})
	defer w.Close()
	var open atomic.Int64
	w.SetCommitters(open.Load)
	for _, c := range []struct {
		open  int64
		polls bool
	}{{1, true}, {2, true}, {3, false}, {20, false}, {2, true}} {
		open.Store(c.open)
		calls := 0
		w.Spin(func() bool { calls++; return calls == 3 })
		if (calls > 1) != c.polls || calls == 0 {
			t.Errorf("%d transactions open on 2 processors: %d looks at cond, want polling %v", c.open, calls, c.polls)
		}
	}
}
