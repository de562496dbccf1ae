// The phenomena catalogue of Berenson et al. (the paper's ref [2]),
// written in this package's DSL and executed against each
// concurrency-control mode by the deterministic scheduler
// (internal/detsim): "blocked" is what the lock table reported for the
// step, not a timer that ran out, so every verdict here is the same on
// every run. An external test package, because detsim imports histories.
package histories_test

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"sicost/internal/core"
	"sicost/internal/detsim"
	"sicost/internal/histories"
)

func run(t *testing.T, mode core.CCMode, platform core.Platform, h string) *detsim.Result {
	t.Helper()
	res, err := detsim.Runner{Mode: mode, Platform: platform}.Run(h)
	if err != nil {
		t.Fatalf("history %q: %v", h, err)
	}
	if res.HeldLocks != 0 || res.QueuedLocks != 0 {
		t.Fatalf("history %q: lock audit %d held, %d queued", h, res.HeldLocks, res.QueuedLocks)
	}
	return res
}

func runSI(t *testing.T, h string) *detsim.Result {
	return run(t, core.SnapshotFUW, core.PlatformPostgres, h)
}

func TestRunnerErrors(t *testing.T) {
	r := detsim.Runner{Mode: core.SnapshotFUW}
	if _, err := r.Run("r1(x)"); err == nil {
		t.Fatal("use before begin accepted")
	}
	if _, err := r.Run("b1 b1"); err == nil {
		t.Fatal("double begin accepted")
	}
	if _, err := r.Run("bogus"); err == nil {
		t.Fatal("parse error not propagated")
	}
}

// P0 dirty write: w1(x) then w2(x) before c1. Every mode must prevent
// t2 overwriting uncommitted data — here by blocking on the row lock.
func TestP0DirtyWrite(t *testing.T) {
	for _, mode := range []core.CCMode{core.SnapshotFUW, core.Strict2PL, core.SerializableSI} {
		res := run(t, mode, core.PlatformPostgres, "b1 b2 w1(x,1) w2(x,2) c1")
		w2 := res.Steps[3]
		if w2.Step.Kind != histories.OpWrite || w2.Step.Txn != 2 {
			t.Fatalf("%v: unexpected step order %+v", mode, res.Steps)
		}
		// w2 blocked when it was issued, in every mode.
		if !w2.Blocked {
			t.Fatalf("%v: w2 did not block behind t1's row lock: %+v", mode, w2)
		}
		// After c1, w2 resolved: under SI it must have failed (FUW);
		// under 2PL it proceeds.
		switch mode {
		case core.Strict2PL:
			if w2.Status != detsim.OK {
				t.Fatalf("2PL: w2 never resolved: %+v", w2)
			}
		default:
			if w2.Status != detsim.Failed || !errors.Is(w2.Err, core.ErrSerialization) {
				t.Fatalf("%v: w2 status %v err %v, want FUW failure", mode, w2.Status, w2.Err)
			}
		}
	}
}

// P1 dirty read: t2 must never see t1's uncommitted write.
func TestP1DirtyRead(t *testing.T) {
	for _, mode := range []core.CCMode{core.SnapshotFUW, core.SerializableSI} {
		res := run(t, mode, core.PlatformPostgres, "b1 b2 w1(x,7) r2(x) c1 c2")
		if r2 := res.Steps[3]; r2.Status != detsim.OK || r2.Blocked {
			t.Fatalf("%v: snapshot read blocked or failed: %+v", mode, r2)
		}
		if got := res.Value(3); got != 0 {
			t.Fatalf("%v: dirty read saw %d", mode, got)
		}
	}
	// 2PL: the read BLOCKS until t1 commits, then sees the committed 7.
	res := run(t, core.Strict2PL, core.PlatformPostgres, "b1 b2 w1(x,7) r2(x) c1 c2")
	if r2 := res.Steps[3]; !r2.Blocked || r2.Status != detsim.OK || r2.Val != 7 {
		t.Fatalf("2PL: read %+v, want blocked, then ok with 7", r2)
	}
}

// P2 fuzzy (non-repeatable) read: two reads of x in t1 straddling a
// committed update by t2.
func TestP2FuzzyRead(t *testing.T) {
	for _, mode := range []core.CCMode{core.SnapshotFUW, core.SerializableSI} {
		res := run(t, mode, core.PlatformPostgres, "b1 r1(x) b2 w2(x,9) c2 r1(x) c1")
		if res.Value(1) != res.Value(5) {
			t.Fatalf("%v: non-repeatable read: %d then %d", mode, res.Value(1), res.Value(5))
		}
		// Under SSI this read-write pattern may doom t1 (false
		// positive) but the values seen must still be stable; under
		// plain SI the commit succeeds.
		if mode == core.SnapshotFUW && !res.Committed[1] {
			t.Fatalf("SI: reader aborted: %v", res.Errs[1])
		}
	}
}

// P4 lost update: r1(x) r2(x) w2(x) c2 then w1(x) — t1's write must not
// silently clobber t2's.
func TestP4LostUpdate(t *testing.T) {
	res := runSI(t, "b1 b2 r1(x) r2(x) w2(x,10) c2 w1(x,20) c1")
	w1 := res.Steps[6]
	if w1.Status != detsim.Failed || !errors.Is(w1.Err, core.ErrSerialization) {
		t.Fatalf("SI must abort the late writer: %+v", w1)
	}
	if res.Committed[1] {
		t.Fatal("t1 must not commit after the failed write")
	}
	if res.Final["x"] != 10 {
		t.Fatalf("final x = %d, want t2's 10", res.Final["x"])
	}
}

// A5A read skew: t1 reads x, t2 updates x and y and commits, t1 reads y.
// Snapshot modes must give t1 a consistent (old,old) view.
func TestA5AReadSkew(t *testing.T) {
	res := runSI(t, "b1 r1(x) b2 w2(x,1) w2(y,1) c2 r1(y) c1")
	if res.Value(1) != 0 || res.Value(6) != 0 {
		t.Fatalf("read skew: saw x=%d y=%d", res.Value(1), res.Value(6))
	}
}

// A5B write skew: the signature SI anomaly. Allowed under plain SI,
// prevented under SSI and 2PL.
func TestA5BWriteSkew(t *testing.T) {
	h := "b1 b2 r1(x) r1(y) r2(x) r2(y) w1(x,1) w2(y,1) c1 c2"

	si := runSI(t, h)
	if !si.Committed[1] || !si.Committed[2] {
		t.Fatalf("plain SI must allow write skew: %v / %v", si.Errs[1], si.Errs[2])
	}
	if got := si.Report.Classify(); got != "write skew" {
		t.Fatalf("plain SI: checker says %q", got)
	}

	ssi := run(t, core.SerializableSI, core.PlatformPostgres, h)
	if ssi.Committed[1] && ssi.Committed[2] {
		t.Fatal("SSI let both write-skew transactions commit")
	}

	twoPL := run(t, core.Strict2PL, core.PlatformPostgres, h)
	if twoPL.Committed[1] && twoPL.Committed[2] {
		t.Fatal("2PL let both write-skew transactions commit")
	}
}

// The read-only anomaly of Fekete/O'Neil/O'Neil 2004 in DSL form:
// t2 deposits to x; t3 (read-only) sees x new, y old; t1 writes y from
// the old snapshot. All three commit under SI; SSI prevents it.
func TestReadOnlyAnomalyDSL(t *testing.T) {
	h := "b1 r1(x) r1(y) b2 r2(x) w2(x,20) c2 b3 r3(x) r3(y) c3 w1(y,-11) c1"
	si := runSI(t, h)
	if !si.Committed[1] || !si.Committed[2] || !si.Committed[3] {
		t.Fatalf("SI must commit all three: %v %v %v", si.Errs[1], si.Errs[2], si.Errs[3])
	}
	if si.Value(8) != 20 || si.Value(9) != 0 {
		t.Fatalf("t3 saw x=%d y=%d, want 20/0", si.Value(8), si.Value(9))
	}
	if got := si.Report.Classify(); got != "read-only anomaly" {
		t.Fatalf("plain SI: checker says %q", got)
	}

	ssi := run(t, core.SerializableSI, core.PlatformPostgres, h)
	if ssi.Committed[1] && ssi.Committed[2] && ssi.Committed[3] {
		t.Fatal("SSI let the read-only anomaly through")
	}
}

// The §II-C select-for-update interleaving, platform by platform:
// begin(T) begin(U) u1(x) c1 w2(x) c2.
func TestSfuInterleavingPerPlatform(t *testing.T) {
	h := "b1 b2 u1(x) c1 w2(x,5) c2"
	pg := run(t, core.SnapshotFUW, core.PlatformPostgres, h)
	if pg.Steps[4].Status != detsim.OK || !pg.Committed[2] {
		t.Fatalf("PostgreSQL must allow the interleaving: %+v", pg.Steps[4])
	}
	cm := run(t, core.SnapshotFUW, core.PlatformCommercial, h)
	if cm.Steps[4].Status != detsim.Failed || !errors.Is(cm.Steps[4].Err, core.ErrSerialization) {
		t.Fatalf("commercial must reject the write: %+v", cm.Steps[4])
	}
}

// Lock waits resolve: a blocked writer proceeds after the holder
// aborts.
func TestBlockedWriterResolvesOnAbort(t *testing.T) {
	res := runSI(t, "b1 b2 w1(x,1) w2(x,2) a1 c2")
	w2 := res.Steps[3]
	if !w2.Blocked || w2.Status != detsim.OK {
		t.Fatalf("waiter after abort: %+v", w2)
	}
	if !res.Committed[2] {
		t.Fatalf("t2: %v", res.Errs[2])
	}
}

// Custom initial items are honoured.
func TestCustomItems(t *testing.T) {
	res, err := detsim.Runner{
		Mode:  core.SnapshotFUW,
		Items: map[string]int64{"acct": 100},
	}.Run("b1 r1(acct) c1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value(1) != 100 {
		t.Fatalf("read %d", res.Value(1))
	}
}

// A history ending with a still-blocked transaction is cleaned up: the
// step is reported Stuck, the holder is aborted first (its goroutine is
// idle) and the waiter unwinds on its own goroutine — no lock, waiter or
// goroutine is left behind.
func TestDanglingBlockedTxnCleanedUp(t *testing.T) {
	before := runtime.NumGoroutine()
	res := runSI(t, "b1 b2 w1(x,1) w2(x,2)") // run audits the lock table
	if w2 := res.Steps[3]; !w2.Blocked || w2.Status != detsim.Stuck {
		t.Fatalf("w2 should be stuck at history end: %+v", w2)
	}
	if res.Committed[1] || res.Committed[2] {
		t.Fatalf("committed = %v, want none", res.Committed)
	}
	// The step goroutines exit once their channels close; give the
	// scheduler a moment to run them out.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines before the schedule, %d after", before, n)
	}
}
