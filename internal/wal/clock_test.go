package wal

import (
	"errors"
	"fmt"
	"sort"
	"sync"
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
	return enqueue(t, w, &Record{TxID: txID, Bytes: 1})
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

// TestBackToBackPairSharesSyncs: two clients that commit back to back
// for 200 ms end up in one sync, not in turns — the first sync carries
// one of them, every later one is held the moment it takes the other to
// return.
func TestBackToBackPairSharesSyncs(t *testing.T) {
	w := New(Config{FsyncLatency: 2500 * time.Microsecond})
	defer w.Close()
	stop := time.Now().Add(200 * time.Millisecond)
	var wg sync.WaitGroup
	for c := uint64(0); c < 2; c++ {
		wg.Add(1)
		go func(c uint64) {
			defer wg.Done()
			for i := uint64(0); time.Now().Before(stop); i++ {
				if err := commitN(w, 2*i+c, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	s := w.Stats()
	t.Logf("%d commits in %d syncs (%.2f per sync), %d held, %d of them until the other was back",
		s.Records, s.Syncs, s.CommitsPerSync(), s.Holds, s.HoldHits)
	if s.CommitsPerSync() < 1.6 {
		t.Errorf("two back-to-back clients: %.2f commits per sync, want at least 1.6", s.CommitsPerSync())
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

// TestWindowMembershipIsByArrival drives the device clock directly, in
// virtual time: which sync carries a record, and when that sync starts,
// depends on when the records arrived, when the device came free and
// how many committers its last sync sent back — not on when the flusher
// got round to looking. Each step is one look by the flusher at `now`,
// with the records that had arrived by then in the queue: it either
// claims n records for a sync that ends at `at`, or (n = 0) finds the
// sync held and is told to look again at `at`, the hold's limit. The
// sync takes 5 ms and so the limit is 5 ms after the device came free.
func TestWindowMembershipIsByArrival(t *testing.T) {
	const lat = 5 * time.Millisecond
	base := time.Now()
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	type step struct {
		now  int // when the flusher looks, ms after base
		n    int // records claimed; 0: the sync is held
		at   int // sync end (or, held, when to look again)
		left int // records that had arrived by now and stay queued
	}
	for _, tc := range []struct {
		name     string
		maxBatch int
		freeAt   int   // end of the last sync
		cohort   int   // committers it acknowledged
		arrivals []int // ms after base, ascending
		async    int   // the first async arrivals have no committer waiting
		steps    []step
		holds    int64 // Stats after the last step
		hits     int64
		heldMs   int64
	}{
		// An idle device (nothing acknowledged within the limit) starts
		// on the first arrival and carries only it. Its committer is then
		// on its way back: the two records that came during the sync
		// (old rule: a sync of their own at 5, done at 10) are held for
		// one more arrival; none comes, so they start at the limit, 10,
		// and are done at 15.
		{name: "idle", freeAt: -100, arrivals: []int{0, 1, 3},
			steps: []step{{0, 1, 5, 0}, {5, 0, 10, 2}, {10, 2, 15, 0}},
			holds: 1, heldMs: 5},
		// The same, and the committer returns at 7, inside the limit: the
		// sync starts on its arrival and carries all three. The flusher
		// reads that off at the limit; the sync's end is still ahead.
		{name: "queued-plus-return", freeAt: -100, arrivals: []int{0, 1, 3, 7},
			steps: []step{{0, 1, 5, 0}, {5, 0, 10, 2}, {10, 3, 12, 0}},
			holds: 1, hits: 1, heldMs: 2},
		// A busy device (free at 2, looked at late) starts when free with
		// everything queued by then. The record that came at 3 (old
		// rule: a sync at 7, done at 12) is held for the two committers
		// acknowledged at 7 until the limit, 12, and is done at 17.
		{name: "busy", freeAt: 2, arrivals: []int{0, 1, 3},
			steps: []step{{3, 2, 7, 1}, {7, 0, 12, 1}, {12, 1, 17, 0}},
			holds: 1, heldMs: 5},
		// Equal stamps share a sync; the third record is held like busy's.
		{name: "tie", freeAt: -100, arrivals: []int{0, 0, 1},
			steps: []step{{1, 2, 5, 1}, {5, 0, 10, 1}, {10, 1, 15, 0}},
			holds: 1, heldMs: 5},
		// MaxBatch caps a window; the cut-off records were there when the
		// next sync starts, so they chain at exactly one latency each.
		// One fsync per commit has nobody to wait for: never held.
		{name: "maxbatch-1", maxBatch: 1, freeAt: 4, cohort: 1, arrivals: []int{0, 1, 3},
			steps: []step{{4, 1, 9, 2}, {9, 1, 14, 1}, {14, 1, 19, 0}}},
		// Both committers acknowledged at 0 return inside the limit: one
		// sync carries both and starts on the second arrival.
		{name: "cohort-returns", freeAt: 0, cohort: 2, arrivals: []int{1, 3},
			steps: []step{{1, 0, 5, 1}, {5, 2, 8, 0}},
			holds: 1, hits: 1, heldMs: 2},
		// The second returns after the limit: the sync starts at the
		// limit with the first. One miss is let pass: the record of 7,
		// waiting when one committer is acknowledged at 10, is held for
		// it too, in vain again. Two misses in a row are not, and the
		// next sync that would be held (the record of 16, one acknowledged
		// at 20) starts at once instead.
		{name: "cohort-late", freeAt: 0, cohort: 2, arrivals: []int{1, 7, 16},
			steps: []step{{1, 0, 5, 1}, {5, 1, 10, 0}, {10, 0, 15, 1}, {15, 1, 20, 0}, {20, 1, 25, 0}},
			holds: 2, heldMs: 9},
		// A device idle for longer than the limit starts on arrival.
		{name: "idle-past-limit", freeAt: 0, cohort: 2, arrivals: []int{6, 7},
			steps: []step{{6, 1, 11, 0}}},
		// Anti-phase, broken: one record came during the sync that ended
		// at 10 and acknowledged one committer; that one returns at 11 and
		// both share the sync that starts then.
		{name: "waiting-plus-cohort", freeAt: 10, cohort: 1, arrivals: []int{8, 11},
			steps: []step{{10, 0, 15, 1}, {15, 2, 16, 0}},
			holds: 1, hits: 1, heldMs: 1},
		// A full window ends the hold: with MaxBatch 2 the sync starts
		// when the second record is there, not the third.
		{name: "maxbatch-2", maxBatch: 2, freeAt: 10, cohort: 2, arrivals: []int{8, 11, 12},
			steps: []step{{10, 0, 15, 1}, {15, 2, 16, 1}},
			holds: 1, hits: 1, heldMs: 1},
		// ... and a window already full when the device comes free is not
		// held at all.
		{name: "maxbatch-2-full", maxBatch: 2, freeAt: 10, cohort: 2, arrivals: []int{8, 9},
			steps: []step{{10, 2, 15, 0}}},
		// One client: its own return is the arrival that completes the
		// cohort, so its sync starts on arrival, as under the old rule.
		{name: "k=1", freeAt: 10, cohort: 1, arrivals: []int{12},
			steps: []step{{12, 1, 17, 0}}},
		// Async records have no committer waiting: a sync that carried
		// only them sends nobody back, and the next one is not held.
		{name: "async", freeAt: -100, arrivals: []int{0, 1}, async: 1,
			steps: []step{{0, 1, 5, 0}, {5, 1, 10, 0}}},
	} {
		w := New(Config{FsyncLatency: lat, MaxBatch: tc.maxBatch})
		w.freeAt, w.cohort = at(tc.freeAt), tc.cohort
		arrivals := tc.arrivals
		for i, want := range tc.steps {
			for len(arrivals) > 0 && arrivals[0] <= want.now {
				id := len(tc.arrivals) - len(arrivals)
				w.pending = append(w.pending, &Record{TxID: uint64(id), Async: id < tc.async, arrived: at(arrivals[0])})
				arrivals = arrivals[1:]
			}
			w.mu.Lock()
			window, deadline := w.claimAt(at(want.now))
			left := len(w.pending)
			w.mu.Unlock()
			got := step{want.now, len(window), int(deadline.Sub(base) / time.Millisecond), left}
			if got != want {
				t.Errorf("%s: step %d = %+v, want %+v", tc.name, i, got, want)
			}
		}
		s := w.Stats()
		if s.Holds != tc.holds || s.HoldHits != tc.hits || s.HeldNanos != tc.heldMs*int64(time.Millisecond) {
			t.Errorf("%s: %d holds, %d hits, held %v; want %d, %d, %d ms",
				tc.name, s.Holds, s.HoldHits, time.Duration(s.HeldNanos), tc.holds, tc.hits, tc.heldMs)
		}
	}

	// No simulated latency: no clock, a window is everything pending.
	w := New(Config{Device: newTestLog(t)})
	for _, ms := range []int{0, 1, 3} {
		w.pending = append(w.pending, &Record{arrived: at(ms)})
	}
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
		if s.Syncs != tc.syncs || s.Records != 7 {
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

// startHold leaves w with a hold in progress and returns the held
// record, its verdict channel and when the hold began: a first record
// has had the device to itself, the second came during that sync and is
// now held for the first one's committer — who is not coming.
func startHold(t *testing.T, w *WAL) (held *Record, verdict <-chan error, since time.Time) {
	t.Helper()
	d1 := enqN(t, w, 1)
	waitQueued(t, w, 0)
	held = &Record{TxID: 2, Bytes: 1}
	verdict = enqueue(t, w, held)
	if err := <-d1; err != nil {
		t.Fatal(err)
	}
	since = time.Now()
	for stop := since.Add(5 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		w.mu.Lock()
		ok := w.held
		w.mu.Unlock()
		if ok {
			return held, verdict, since
		}
		if time.Now().After(stop) {
			t.Fatal("the second record's sync was never held")
		}
	}
}

// TestDrainAndCloseEndAHold: Drain and Close promise that no Enqueue
// follows, so a hold in progress is waiting for nobody. Its sync starts
// the instant they are called — the held record is acknowledged one
// sync later, not one sync after the hold's limit — and Close, which
// fails what is merely queued, lets that sync complete as it does one
// in flight. Ending a hold this way is no miss: nothing backs off.
func TestDrainAndCloseEndAHold(t *testing.T) {
	const lat = 60 * time.Millisecond
	for name, quiesce := range map[string]func(*WAL){"Drain": (*WAL).Drain, "Close": (*WAL).Close} {
		w := New(Config{FsyncLatency: lat})
		_, verdict, since := startHold(t, w)
		time.Sleep(lat / 6)
		called := time.Now()
		if called.Sub(since) > lat/2 {
			w.Close()
			t.Skipf("host stalled: %v of the hold had gone before %s was called", called.Sub(since), name)
		}
		quiesce(w)
		took := time.Since(called)
		select {
		case err := <-verdict:
			if err != nil {
				t.Errorf("%s: held record: verdict %v, want it durable", name, err)
			}
		default:
			t.Errorf("%s returned with the held record unresolved", name)
		}
		// The limit was a whole sync after the hold began: sleeping it out
		// would have cost lat - lat/6 more, and that is the property. How
		// far past one sync a correct run lands measures the host (the
		// stall probe above skips the worst of it), so anything short of
		// the slept-out cost passes.
		if sleptOut := 2*lat - lat/6; took < lat || took >= sleptOut {
			t.Errorf("%s during a hold took %v; want one sync (%v) from the call, not the hold slept out (%v)", name, took, lat, sleptOut)
		}
		w.mu.Lock()
		running, backoff := w.flusher, w.holdBackoff
		w.mu.Unlock()
		if s := w.Stats(); running || backoff != 0 || s.Syncs != 2 || s.Holds != 1 || s.HoldHits != 0 {
			t.Errorf("%s: flusher running %v, back-off %d, stats %+v; want two syncs, one of them held, no miss", name, running, backoff, s)
		}
		w.Close()
	}
}

// TestWithdrawDuringHold: a held record is still only queued, so its
// committer can take it back (a transaction deadline expiring); the hold
// then has nothing to start a sync for, the flusher exits at the limit,
// and the log goes on.
func TestWithdrawDuringHold(t *testing.T) {
	const lat = 20 * time.Millisecond
	w := New(Config{FsyncLatency: lat})
	defer w.Close()
	held, verdict, _ := startHold(t, w)
	if !w.Withdraw(held) {
		t.Fatal("a held record could not be withdrawn")
	}
	w.Drain()
	select {
	case err := <-verdict:
		t.Fatalf("withdrawn record got a verdict: %v", err)
	default:
	}
	if s := w.Stats(); s.Syncs != 1 || s.Records != 1 || s.Holds != 0 {
		t.Fatalf("stats = %+v, want the first record's sync only", s)
	}
	if err := commitN(w, 3, 1); err != nil {
		t.Fatal(err)
	}

	// With another record held beside it, the hold goes on for the
	// shorter queue (virtual time: two records came during a sync that
	// ended at 10 ms and acknowledged one committer).
	base := time.Now()
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	v := New(Config{FsyncLatency: lat})
	v.freeAt, v.cohort = at(10), 1
	v.pending = []*Record{{TxID: 1, arrived: at(8)}, {TxID: 2, arrived: at(9)}}
	if window, again := v.claimAt(at(10)); window != nil || !again.Equal(at(30)) {
		t.Fatalf("claimed %d records, deadline %v; want the sync held to its limit", len(window), again.Sub(base))
	}
	if !v.Withdraw(v.pending[0]) {
		t.Fatal("a held record could not be withdrawn")
	}
	if window, done := v.claimAt(at(30)); len(window) != 1 || window[0].TxID != 2 || !done.Equal(at(50)) {
		t.Fatalf("claimed %d records, done at %v; want the one left, at the limit plus a sync", len(window), done.Sub(base))
	}
}

// TestBrickedQueueFailsAtOnce: once a window has bricked the WAL, the
// windows queued behind it fail with the sticky cause immediately —
// they used to wait out a full sync each before looking.
func TestBrickedQueueFailsAtOnce(t *testing.T) {
	const lat = 50 * time.Millisecond
	// One record per sync; and unbounded windows, where the seven records
	// behind the first are one window that would be held for the first
	// one's committer: a bricked WAL does not hold either.
	for _, tc := range []struct {
		maxBatch int
		failed   int64
	}{{1, 8}, {0, 2}} {
		w := New(Config{FsyncLatency: lat, MaxBatch: tc.maxBatch})
		reg := faultinject.New(5)
		w.SetFaults(reg)
		if err := reg.Arm(faultinject.Spec{Point: FaultFlush, Count: 1, Action: faultinject.ActPanic}); err != nil {
			t.Fatal(err)
		}

		dones := make([]<-chan error, 8)
		for i := range dones {
			dones[i] = enqN(t, w, uint64(i))
			if i == 0 {
				waitQueued(t, w, 0)
			}
		}
		var bricked time.Time
		for i, d := range dones {
			if err := <-d; !errors.Is(err, core.ErrInjected) {
				t.Fatalf("MaxBatch %d, record %d: verdict %v, want the crash", tc.maxBatch, i, err)
			}
			if i == 0 {
				bricked = time.Now()
			}
		}
		if el := time.Since(bricked); el > lat/2 {
			t.Fatalf("MaxBatch %d: the 7 records behind the bricking window took %v to fail; want at once (one sync is %v)", tc.maxBatch, el, lat)
		}
		if s := w.Stats(); s.FailedFlushes != tc.failed || s.Syncs != 0 || s.Holds != 0 {
			t.Fatalf("MaxBatch %d: stats = %+v, want %d failed windows, no sync and no hold", tc.maxBatch, s, tc.failed)
		}
		w.Close()
	}
}

// claimBeforeHold is the device clock as it was before syncs were held,
// kept as the reference the hold is measured against: a sync starts as
// soon as the device is free and a record is waiting.
func claimBeforeHold(w *WAL) (window []*Record, deadline time.Time) {
	start := w.pending[0].arrived
	if w.freeAt.After(start) {
		start = w.freeAt
	}
	n := sort.Search(len(w.pending), func(i int) bool { return w.pending[i].arrived.After(start) })
	window, w.pending = w.pending[:n:n], w.pending[n:]
	w.freeAt = start.Add(w.cfg.FsyncLatency)
	return window, w.freeAt
}

// simClosedLoop runs mpl closed-loop clients against the device clock in
// virtual time — nothing sleeps — for ten seconds of it, and returns
// their commit rate and the clock's counters. Each client's next commit
// record arrives ret after the acknowledgement of its last; the first
// ones arrive 300 µs apart, so that clients do not start out in step.
// The flusher looks at the queue when a real one would: when a record
// reaches an empty queue, at a hold's limit, and when a sync ends.
func simClosedLoop(lat time.Duration, ret []time.Duration, claim func(w *WAL, now time.Time) ([]*Record, time.Time)) (tps float64, s Stats) {
	const span = 10 * time.Second
	w := New(Config{FsyncLatency: lat})
	base := time.Unix(1_000_000, 0)
	next := make([]time.Time, len(ret)) // when client i's next record arrives; zero: it is queued
	for i := range next {
		next[i] = base.Add(time.Duration(i) * 300 * time.Microsecond)
	}
	// arrive queues, in arrival order, the records that have arrived by now.
	arrive := func(now time.Time) {
		var due []int
		for i, at := range next {
			if !at.IsZero() && !at.After(now) {
				due = append(due, i)
			}
		}
		sort.Slice(due, func(a, b int) bool { return next[due[a]].Before(next[due[b]]) })
		for _, i := range due {
			w.pending = append(w.pending, &Record{TxID: uint64(i), arrived: next[i]})
			next[i] = time.Time{}
		}
	}
	commits := 0
	for now := base; now.Before(base.Add(span)); {
		if arrive(now); len(w.pending) == 0 {
			// No flusher is running: the earliest arrival starts one.
			now = next[0]
			for _, at := range next {
				if at.Before(now) {
					now = at
				}
			}
			arrive(now)
		}
		window, at := claim(w, now)
		now = at // a held sync's limit, or the sync's end
		for _, r := range window {
			next[r.TxID] = at.Add(ret[r.TxID])
			commits++
		}
	}
	return float64(commits) / span.Seconds(), w.stats
}

// TestHoldRegimes is the hold's regime table: closed-loop clients that
// return with their next commit a fixed time after each acknowledgement
// (client i of a row takes 50 µs × i longer, so that a cohort's arrivals
// spread), at a 2.5 ms sync, under the hold and under the rule before
// it. One client is untouched in every column. Clients that return
// quickly share one sync instead of taking turns (before: half of them
// per sync, MPL ÷ 5 ms). Where they return too late for the hold to pay
// — 4 ms is past the limit — the back-off keeps what the misses cost
// under 3 %. The mixed rows are populations in which holds that reach
// their cohort alternate with holds that do not; the last is the worst
// of 400 drawn at random (2 to 8 clients, returns log-uniform from 50 µs
// to 25 ms: mean ratio 1.09) and the one before it, made up to be hard,
// the worst found. They get 5 %, for in them a hold also moves which
// clients meet in a sync, which a fixed return time turns into a
// standing pattern.
func TestHoldRegimes(t *testing.T) {
	const lat = 2500 * time.Microsecond
	held := func(w *WAL, now time.Time) ([]*Record, time.Time) { return w.claimAt(now) }
	before := func(w *WAL, _ time.Time) ([]*Record, time.Time) { return claimBeforeHold(w) }
	// run returns the rate under the hold over the rate before it, which
	// must not be below floor.
	run := func(name string, rets []time.Duration, floor float64) (ratio float64, s Stats) {
		was, _ := simClosedLoop(lat, rets, before)
		is, s := simClosedLoop(lat, rets, held)
		perHold := time.Duration(0)
		if s.Holds > 0 {
			perHold = time.Duration(s.HeldNanos / s.Holds)
		}
		t.Logf("%-28s %8.1f %8.1f %6.3f %6d %6d %9v", name, was, is, is/was, s.Holds, s.HoldHits, perHold.Round(time.Microsecond))
		if is < floor*was {
			t.Errorf("%s: %.1f tps, %.3f of the %.1f before; want at least %.2f", name, is, is/was, was, floor)
		}
		return is / was, s
	}
	t.Logf("%-28s %8s %8s %6s %6s %6s %9s", "MPL × return", "before", "held", "ratio", "holds", "hits", "held/hold")
	for _, mpl := range []int{1, 2, 4, 8} {
		for _, ret := range []time.Duration{100, 400, 1000, 1500, 2000, 4000} {
			rets := make([]time.Duration, mpl)
			for i := range rets {
				rets[i] = (ret + time.Duration(i)*50) * time.Microsecond
			}
			ratio, s := run(fmt.Sprintf("%d × %v", mpl, rets[0]), rets, 0.97)
			switch {
			case mpl == 1 && (ratio != 1 || s.Holds != 0):
				t.Errorf("MPL 1, return %v: %.3f of the rate before, %d holds: one client must not notice", rets[0], ratio, s.Holds)
			case (mpl == 2 || mpl == 4) && ret <= 400 && ratio < 1.4:
				t.Errorf("MPL %d, return %v: %.2f of the rate before; want at least 1.4", mpl, rets[0], ratio)
			}
		}
	}
	const us = time.Microsecond
	for _, rets := range [][]time.Duration{
		{400 * us, 4000 * us},
		{400 * us, 2600 * us},
		{2400 * us, 2600 * us},
		{400 * us, 450 * us, 4000 * us, 4100 * us},
		{400 * us, 4000 * us, 4050 * us, 4100 * us},
		{400 * us, 2600 * us, 2700 * us, 3000 * us},
		{1000 * us, 6000 * us, 7000 * us, 9000 * us},
		{100 * us, 10000 * us, 15000 * us, 22000 * us},
		{53 * us, 4192 * us, 5664 * us, 9856 * us, 8320 * us},
	} {
		run(fmt.Sprint(rets), rets, 0.95)
	}
}

// TestControlWindowSkipsTheClock: under a simulated sync, a window of
// control records alone — a checkpoint's rows batches, its markers, a
// schema frame — is written and synced on the device without waiting a
// simulated sync, and leaves the clock as it was; a commit queued next
// still waits its whole sync, and a control record queued during that
// sync is written right after it, without a sync of its own.
func TestControlWindowSkipsTheClock(t *testing.T) {
	const latency = 50 * time.Millisecond
	w := New(Config{Device: newTestLog(t), FsyncLatency: latency})
	defer w.Close()
	start := time.Now()
	for range 8 {
		if err := sequenced(w, Control(EncodeCkptRows(&CkptRows{CSN: 1}))); err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(start); took >= latency {
		t.Fatalf("8 control-only windows took %v, one simulated sync is %v", took, latency)
	}
	w.mu.Lock()
	freeAt := w.freeAt
	w.mu.Unlock()
	if s := w.Stats(); s.Syncs != 8 || s.Records != 0 || !freeAt.IsZero() {
		t.Fatalf("after 8 control-only windows: %+v, clock free at %v", s, freeAt)
	}

	start = time.Now()
	commit := enqueue(t, w, framed(w, &Record{TxID: 1, CSN: 1}))
	waitQueued(t, w, 0) // the commit's window is claimed and waiting its sync
	rows := Control(EncodeCkptRows(&CkptRows{CSN: 1}))
	rowsDone := enqueue(t, w, rows)
	if err := <-commit; err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < latency {
		t.Fatalf("commit acknowledged after %v, before its %v sync", took, latency)
	}
	if err := <-rowsDone; err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= 2*latency {
		t.Errorf("control record queued during the commit's sync done after %v: it waited a sync of its own", took)
	}
	if s := w.Stats(); s.Syncs != 10 || s.Records != 1 {
		t.Fatalf("after a commit and a control record: %+v", s)
	}
}

// TestBulkCommitSkipsTheClock: under a simulated sync, the commits of a
// bulk load (Record.Bulk) are written and synced on the device without
// waiting a simulated sync, and leave the clock as it was; a commit
// queued after them still waits its whole sync.
func TestBulkCommitSkipsTheClock(t *testing.T) {
	const latency = 50 * time.Millisecond
	dev := newTestLog(t)
	w := New(Config{Device: dev, FsyncLatency: latency})
	defer w.Close()
	start := time.Now()
	var verdicts []<-chan error
	for csn := uint64(1); csn <= 4; csn++ {
		rec := framed(w, &Record{TxID: csn, CSN: csn, Async: true, Bulk: true,
			Rows: []RowImage{{Table: "T", Key: core.Int(int64(csn)), Rec: core.Record{core.Int(int64(csn))}}}})
		done, err := w.Enqueue(rec)
		if err != nil {
			t.Fatal(err)
		}
		verdicts = append(verdicts, done)
	}
	for _, done := range verdicts {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(start); took >= latency {
		t.Fatalf("4 bulk commits took %v, one simulated sync is %v", took, latency)
	}
	durable, _ := w.DurableWatermark()
	w.mu.Lock()
	freeAt := w.freeAt
	w.mu.Unlock()
	if s := w.Stats(); s.Records != 4 || durable != 4 || !freeAt.IsZero() {
		t.Fatalf("after 4 bulk commits: %+v, durable up to %d, clock free at %v", s, durable, freeAt)
	}
	frames, _ := ScanLog(logImage(t, dev))
	if len(frames) != 4 {
		t.Fatalf("the device holds %d frames, want the 4 bulk commits", len(frames))
	}

	start = time.Now()
	if err := <-enqueue(t, w, &Record{TxID: 5, CSN: 5}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < latency {
		t.Fatalf("commit acknowledged after %v, before its %v sync", took, latency)
	}
}
