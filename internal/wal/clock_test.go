package wal

import (
	"errors"
	"sort"
	"testing"
	"time"

	"sicost/internal/core"
	"sicost/internal/faultinject"
)

// The simulated device's timing. Lower bounds are exact — the device
// may never acknowledge early — and upper bounds are generous and on
// the median, so a slow or busy host cannot flake them.

// enqN enqueues a bookkeeping-only record and returns its verdict
// channel.
func enqN(t *testing.T, w *WAL, txID uint64) <-chan error {
	t.Helper()
	done, err := w.Enqueue(&Record{TxID: txID, Bytes: 1})
	if err != nil {
		t.Fatalf("enqueue %d: %v", txID, err)
	}
	return done
}

// waitQueued blocks until the flusher has claimed a window and exactly
// n records are still queued behind it.
func waitQueued(t *testing.T, w *WAL, n int) {
	t.Helper()
	for stop := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		w.mu.Lock()
		ok := w.flusher && len(w.pending) == n
		w.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(stop) {
			t.Fatalf("flusher never left %d records queued", n)
		}
	}
}

// median returns the exact nearest-rank median of ds, which it sorts.
func median(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[(len(ds)-1)/2]
}

// TestSyncTakesItsLatency: a commit against an idle device waits one
// sync, never less than FsyncLatency and — at the median — not much
// more, at both latencies the platform profiles use (2.5 ms, and the
// 200 µs of the CommitDurableMPL16 benchmarks). time.Sleep took 3.2 ms
// and 1.1 ms for these.
func TestSyncTakesItsLatency(t *testing.T) {
	for _, lat := range []time.Duration{200 * time.Microsecond, 2500 * time.Microsecond} {
		w := New(Config{FsyncLatency: lat})
		var took []time.Duration
		for i := 0; i < 40; i++ {
			t0 := time.Now()
			if err := commitN(w, uint64(i), 1); err != nil {
				t.Fatal(err)
			}
			el := time.Since(t0)
			if el < lat {
				t.Fatalf("latency %v: commit %d acknowledged after %v", lat, i, el)
			}
			took = append(took, el)
		}
		w.Close()
		med := median(took)
		t.Logf("latency %v: median commit %v", lat, med)
		if med > lat+500*time.Microsecond {
			t.Errorf("latency %v: median commit took %v", lat, med)
		}
	}
}

// TestArrivalDuringSyncWaitsForNext: a record that arrives while a sync
// is in flight is not carried by it — it is acknowledged no earlier than
// that sync's end plus a whole sync of its own.
func TestArrivalDuringSyncWaitsForNext(t *testing.T) {
	const lat = 20 * time.Millisecond
	w := New(Config{FsyncLatency: lat})
	defer w.Close()

	t0 := time.Now() // the first sync starts no earlier than this
	d1 := enqN(t, w, 1)
	waitQueued(t, w, 0)
	d2 := enqN(t, w, 2)
	if err := <-d1; err != nil {
		t.Fatal(err)
	}
	if el := time.Since(t0); el < lat {
		t.Fatalf("first record acknowledged after %v", el)
	}
	if err := <-d2; err != nil {
		t.Fatal(err)
	}
	if el := time.Since(t0); el < 2*lat {
		t.Fatalf("record that arrived mid-sync acknowledged after %v, before the next sync could end (%v)", el, 2*lat)
	}
	if s := w.Stats(); s.Syncs != 2 || s.Records != 2 {
		t.Fatalf("stats = %+v, want two one-record syncs", s)
	}
}

// TestWindowMembershipIsByArrival drives the device clock directly:
// which sync carries a record depends on when the record arrived and
// when the device came free, not on when the flusher got round to
// looking.
func TestWindowMembershipIsByArrival(t *testing.T) {
	const lat = 5 * time.Millisecond
	base := time.Now()
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	queue := func(arrivals ...int) []*Record {
		recs := make([]*Record, len(arrivals))
		for i, ms := range arrivals {
			recs[i] = &Record{TxID: uint64(i), arrived: at(ms)}
		}
		return recs
	}
	type claim struct {
		n       int // records carried
		doneAt  int // sync end, ms after base
		pending int // records left queued
	}
	for _, tc := range []struct {
		name     string
		maxBatch int
		freeAt   int
		arrivals []int
		want     []claim
	}{
		// An idle device starts on the first arrival and carries only it.
		{"idle", 0, -100, []int{0, 1, 3}, []claim{{1, 5, 2}, {2, 10, 0}}},
		// A busy device starts when free, with everything queued by then;
		// the record that came after that start waits a further sync.
		{"busy", 0, 2, []int{0, 1, 3}, []claim{{2, 7, 1}, {1, 12, 0}}},
		// Equal stamps share a sync.
		{"tie", 0, -100, []int{0, 0, 1}, []claim{{2, 5, 1}, {1, 10, 0}}},
		// MaxBatch caps a window; the cut-off records were there when the
		// next sync starts, so they chain at exactly one latency each.
		{"maxbatch", 1, 4, []int{0, 1, 3}, []claim{{1, 9, 2}, {1, 14, 1}, {1, 19, 0}}},
	} {
		w := New(Config{FsyncLatency: lat, MaxBatch: tc.maxBatch})
		w.freeAt = at(tc.freeAt)
		w.pending = queue(tc.arrivals...)
		for i, want := range tc.want {
			w.mu.Lock()
			window, deadline := w.claimWindow()
			left := len(w.pending)
			w.mu.Unlock()
			got := claim{len(window), int(deadline.Sub(base) / time.Millisecond), left}
			if got != want {
				t.Errorf("%s: claim %d = %+v, want %+v", tc.name, i, got, want)
			}
		}
	}

	// No simulated latency: no clock, a window is everything pending.
	w := New(Config{Device: newTestLog(t)})
	w.pending = queue(0, 1, 3)
	w.mu.Lock()
	window, deadline := w.claimWindow()
	w.mu.Unlock()
	if len(window) != 3 || !deadline.IsZero() {
		t.Errorf("bare device: claimed %d records, deadline %v; want all 3 and none", len(window), deadline)
	}
}

// TestBackToBackWindowsDoNotDrift: a backlog drained one record per
// sync pays exactly one latency per window — the flusher's lateness in
// one window is not added to the next.
func TestBackToBackWindowsDoNotDrift(t *testing.T) {
	const (
		lat = 2 * time.Millisecond
		n   = 40
	)
	w := New(Config{FsyncLatency: lat, MaxBatch: 1})
	defer w.Close()

	t0 := time.Now()
	dones := make([]<-chan error, n)
	for i := range dones {
		dones[i] = enqN(t, w, uint64(i))
	}
	acks := make([]time.Duration, n)
	for i, d := range dones {
		if err := <-d; err != nil {
			t.Fatal(err)
		}
		acks[i] = time.Since(t0)
		if floor := time.Duration(i+1) * lat; acks[i] < floor {
			t.Fatalf("record %d acknowledged after %v, before its sync could end (%v)", i, acks[i], floor)
		}
	}
	var windows []time.Duration
	for i := 1; i < n; i++ {
		windows = append(windows, acks[i]-acks[i-1])
	}
	med := median(windows)
	t.Logf("%d windows of %v: total %v, median window %v", n, lat, acks[n-1], med)
	if med > lat+300*time.Microsecond {
		t.Errorf("median window took %v", med)
	}
	if s := w.Stats(); s.Syncs != n || s.Records != n {
		t.Fatalf("stats = %+v, want %d one-record syncs", s, n)
	}
}

// TestBurstBehindSyncSharesTheNext: a burst that arrives before its
// sync starts (the device is busy with the one ahead) shares that one
// sync, or MaxBatch-sized pieces of it — the same windows, and the same
// commits per sync, the gated-device tests pin without a latency.
func TestBurstBehindSyncSharesTheNext(t *testing.T) {
	const lat = 50 * time.Millisecond
	for _, tc := range []struct {
		maxBatch int
		syncs    int64
	}{{0, 2}, {2, 4}, {1, 7}} {
		w := New(Config{FsyncLatency: lat, MaxBatch: tc.maxBatch})
		t0 := time.Now()
		dones := []<-chan error{enqN(t, w, 1)}
		waitQueued(t, w, 0)
		for id := uint64(2); id <= 7; id++ {
			dones = append(dones, enqN(t, w, id))
		}
		if el := time.Since(t0); el > lat {
			w.Close()
			t.Skipf("host stalled: queueing took %v, longer than the first sync", el)
		}
		for _, d := range dones {
			if err := <-d; err != nil {
				t.Fatal(err)
			}
		}
		if el, floor := time.Since(t0), time.Duration(tc.syncs)*lat; el < floor {
			t.Errorf("MaxBatch %d: %d syncs took %v, less than %v", tc.maxBatch, tc.syncs, el, floor)
		}
		s := w.Stats()
		if s.Syncs != tc.syncs || s.Flushes != tc.syncs || s.Records != 7 {
			t.Errorf("MaxBatch %d: stats = %+v, want %d syncs for 7 records", tc.maxBatch, s, tc.syncs)
		}
		if got, want := s.CommitsPerSync(), 7/float64(tc.syncs); got != want {
			t.Errorf("MaxBatch %d: CommitsPerSync = %v, want %v", tc.maxBatch, got, want)
		}
		w.Close()
	}
}

// TestCloseDuringSyncWait: Close while the flusher waits out a sync
// returns only once the flusher has exited; the window in flight is
// acknowledged by its sync, everything behind it fails with
// ErrWALClosed.
func TestCloseDuringSyncWait(t *testing.T) {
	const lat = 50 * time.Millisecond
	w := New(Config{FsyncLatency: lat, MaxBatch: 1})

	t0 := time.Now()
	dones := []<-chan error{enqN(t, w, 1), enqN(t, w, 2), enqN(t, w, 3)}
	waitQueued(t, w, 2)
	w.Close()
	if el := time.Since(t0); el < lat {
		t.Fatalf("Close returned after %v, before the sync in flight ended", el)
	}
	w.mu.Lock()
	running := w.flusher
	w.mu.Unlock()
	if running {
		t.Fatal("Close returned with the flusher still running")
	}
	for i, want := range []error{nil, core.ErrWALClosed, core.ErrWALClosed} {
		select {
		case err := <-dones[i]:
			if !errors.Is(err, want) {
				t.Errorf("record %d: verdict %v, want %v", i+1, err, want)
			}
		default:
			t.Errorf("record %d: no verdict although Close returned", i+1)
		}
	}
	if s := w.Stats(); s.Syncs != 1 || s.Records != 1 {
		t.Fatalf("stats = %+v, want the one sync that was in flight", s)
	}
}

// TestBrickedQueueFailsAtOnce: once a window has bricked the WAL, the
// windows queued behind it fail with the sticky cause immediately —
// they used to wait out a full sync each before looking.
func TestBrickedQueueFailsAtOnce(t *testing.T) {
	const lat = 50 * time.Millisecond
	w := New(Config{FsyncLatency: lat, MaxBatch: 1})
	reg := faultinject.New(5)
	w.SetFaults(reg)
	defer w.Close()
	if err := reg.Arm(faultinject.Spec{Point: FaultFlush, Count: 1, Action: faultinject.ActPanic}); err != nil {
		t.Fatal(err)
	}

	dones := make([]<-chan error, 8)
	for i := range dones {
		dones[i] = enqN(t, w, uint64(i))
	}
	var bricked time.Time
	for i, d := range dones {
		if err := <-d; !errors.Is(err, core.ErrInjected) {
			t.Fatalf("record %d: verdict %v, want the crash", i, err)
		}
		if i == 0 {
			bricked = time.Now()
		}
	}
	if el := time.Since(bricked); el > lat {
		t.Fatalf("the 7 records behind the bricking window took %v to fail; want at once (one sync is %v)", el, lat)
	}
	if s := w.Stats(); s.FailedFlushes != 8 || s.Syncs != 0 {
		t.Fatalf("stats = %+v, want 8 failed windows and no sync", s)
	}
}
