package detsim

import (
	"fmt"
	"testing"

	"sicost/internal/core"
	"sicost/internal/histories"
)

// The SI modes keep an uncontended row lock in the row and enter the
// lock table only when a second writer arrives (storage.LockTable's
// AcquireRowUntil). These explorations put that hand-over under every
// statement-level interleaving: who inflates, who releases, in which
// order — with the standing audits (no lock, owner word or waiter left
// behind) and the outcome each interleaving must have. Ejection by a
// deadline is wall-clock and lives in internal/engine's tests; the
// scheduler here has no clock.

// siModes are the configurations that lock rows thin: all but 2PL.
var siModes = func() (out []modeCase) {
	for _, mc := range allModes {
		if mc.mode != core.Strict2PL {
			out = append(out, mc)
		}
	}
	return out
}()

// exploreEach runs every interleaving that extends prefix and hands each
// complete schedule's record to check, with the dispatch order that
// produced it. It returns the number of complete schedules.
func exploreEach(t *testing.T, r Runner, progs map[int][]histories.Step, prefix []int, check func(order []int, res *Result)) int {
	t.Helper()
	n := 0
	var dfs func(order []int)
	dfs = func(order []int) {
		res, runnable, err := r.RunSchedule(progs, order, true)
		if err != nil {
			t.Fatalf("schedule %v: %v", order, err)
		}
		if len(runnable) == 0 {
			n++
			if res.HeldLocks != 0 || res.QueuedLocks != 0 {
				t.Fatalf("schedule %v: %d locks held, %d waiters queued at the end:\n%s",
					order, res.HeldLocks, res.QueuedLocks, res.Describe())
			}
			check(order, res)
			return
		}
		for _, txn := range runnable {
			dfs(append(append([]int(nil), order...), txn))
		}
	}
	dfs(prefix)
	return n
}

func mustPrograms(t *testing.T, scripts ...string) map[int][]histories.Step {
	t.Helper()
	progs := make(map[int][]histories.Step, len(scripts))
	for i, s := range scripts {
		steps, err := histories.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		progs[i+1] = steps
	}
	return progs
}

// blockedSteps counts the steps that waited for a lock.
func blockedSteps(res *Result) (n int) {
	for _, s := range res.Steps {
		if s.Blocked {
			n++
		}
	}
	return n
}

// overlap reports whether transactions a and b ran concurrently in a
// complete dispatch order: neither ended before the other began.
func overlap(order []int, a, b int) bool {
	span := func(txn int) (first, last int) {
		first = -1
		for i, x := range order {
			if x == txn {
				if first < 0 {
					first = i
				}
				last = i
			}
		}
		return first, last
	}
	a0, a1 := span(a)
	b0, b1 := span(b)
	return a0 < b1 && b0 < a1
}

// TestExploreThinLockHandOver: t1 and t2 write the same row; t1 ends by
// commit or by abort. Whoever writes second finds the row held thin,
// inflates it and queues. Every interleaving must end as first-updater-
// wins says: a writer that waited out a commit fails with a
// serialization error, one that waited out an abort proceeds, and both
// commit only when they did not overlap at all.
func TestExploreThinLockHandOver(t *testing.T) {
	for _, mc := range siModes {
		for _, end := range []string{"c1", "a1"} {
			t.Run(mc.name+"/"+end, func(t *testing.T) {
				progs := mustPrograms(t, "b1 w1(x,1) "+end, "b2 w2(x,2) c2")
				waited, wonAfterAbort := 0, 0
				n := exploreEach(t, Runner{Mode: mc.mode, Platform: mc.platform}, progs, nil, func(order []int, res *Result) {
					ctx := fmt.Sprintf("schedule %v:\n%s", order, res.Describe())
					blocked := blockedSteps(res)
					waited += blocked
					if got := res.Contention.Lock.Waits; got != uint64(blocked) {
						t.Fatalf("lock table counted %d waits, scheduler saw %d blocked steps; %s", got, blocked, ctx)
					}
					if res.Contention.Lock.Deadlocks != 0 {
						t.Fatalf("two writers of one row deadlocked; %s", ctx)
					}
					if res.Contention.Lock.FastPath == 0 {
						t.Fatalf("no fast-path grant counted; %s", ctx)
					}
					both := res.Committed[1] && res.Committed[2]
					if both && overlap(order, 1, 2) {
						t.Fatalf("concurrent writers of one row both committed; %s", ctx)
					}
					if end == "a1" {
						// Only t2 can commit, and nothing can stop it: the
						// one version it could conflict with is rolled back.
						if res.Committed[1] || !res.Committed[2] || res.Final["x"] != 2 {
							t.Fatalf("t1 rolls back, so t2 must commit x=2; %s", ctx)
						}
						if blocked > 0 {
							wonAfterAbort++
						}
						return
					}
					for txn, other := range map[int]int{1: 2, 2: 1} {
						if res.Committed[txn] {
							continue
						}
						if core.ClassifyAbort(res.Errs[txn]) != core.AbortSerialization || !res.Committed[other] {
							t.Fatalf("t%d ended with %v; %s", txn, res.Errs[txn], ctx)
						}
					}
					if !res.Report.Serializable {
						t.Fatalf("not serializable: %s; %s", res.Report.Describe(), ctx)
					}
				})
				if waited == 0 {
					t.Fatalf("no interleaving of %d made a writer wait", n)
				}
				if end == "a1" && wonAfterAbort == 0 {
					t.Fatal("no interleaving had t2 wait out t1's rollback")
				}
			})
		}
	}
}

// TestExploreThinLockDeadlock: a cycle through one lock held in the row
// and one held in the table. The fixed prefix makes y table-held: t3
// select-for-updates it (thin), t2's write inflates it and waits, t3
// commits and the table grants it to t2. From there every interleaving
// of t1 = w(x) w(y) with the rest of t2 = w(x) runs: t1 holds x thin,
// and when both second writes are in, the one that closes the cycle is
// the victim and the other commits.
func TestExploreThinLockDeadlock(t *testing.T) {
	for _, mc := range siModes {
		if mc.platform == core.PlatformCommercial {
			// There a committed select-for-update conflicts like a write:
			// t2 would fail first-updater-wins instead of taking y.
			continue
		}
		t.Run(mc.name, func(t *testing.T) {
			progs := mustPrograms(t, "b1 w1(x,1) w1(y,1) c1", "b2 w2(y,2) w2(x,2) c2", "b3 u3(y) c3")
			prefix := []int{3, 3, 2, 2, 3} // b3 u3(y) b2 w2(y,2)[waits] c3
			deadlocks := 0
			n := exploreEach(t, Runner{Mode: mc.mode, Platform: mc.platform}, progs, prefix, func(order []int, res *Result) {
				ctx := fmt.Sprintf("schedule %v:\n%s", order, res.Describe())
				if !res.Steps[3].Blocked || res.Steps[3].Err != nil {
					t.Fatalf("prefix: w2(y) must wait for t3 and then be granted; %s", ctx)
				}
				if !res.Committed[3] {
					t.Fatalf("t3 did not commit; %s", ctx)
				}
				switch res.Contention.Lock.Deadlocks {
				case 0:
				case 1:
					deadlocks++
					victim, survivor := 1, 2
					if res.Committed[1] {
						victim, survivor = 2, 1
					}
					if core.ClassifyAbort(res.Errs[victim]) != core.AbortDeadlock || !res.Committed[survivor] {
						t.Fatalf("deadlock must abort one of t1, t2 and let the other commit; %s", ctx)
					}
				default:
					t.Fatalf("%d deadlocks in one schedule; %s", res.Contention.Lock.Deadlocks, ctx)
				}
				if res.Committed[1] && res.Committed[2] && overlap(order, 1, 2) {
					t.Fatalf("t1 and t2 overlap on x and y and both committed; %s", ctx)
				}
				if !res.Committed[1] && !res.Committed[2] {
					t.Fatalf("neither t1 nor t2 committed; %s", ctx)
				}
			})
			if deadlocks == 0 {
				t.Fatalf("none of %d interleavings closed the cycle", n)
			}
		})
	}
}

// TestExploreThinLockReentry: both transactions lock the row they write
// more than once — select-for-update, then two writes — so the owner
// word is re-entered while thin and, once the other transaction waits on
// it, while inflated. One hold, however often re-entered: the end of the
// transaction releases it once and the waiter goes ahead.
func TestExploreThinLockReentry(t *testing.T) {
	for _, mc := range siModes {
		t.Run(mc.name, func(t *testing.T) {
			progs := mustPrograms(t, "b1 u1(x) w1(x,1) w1(x,2) c1", "b2 u2(x) w2(x,5) c2")
			waited := 0
			exploreEach(t, Runner{Mode: mc.mode, Platform: mc.platform}, progs, nil, func(order []int, res *Result) {
				ctx := fmt.Sprintf("schedule %v:\n%s", order, res.Describe())
				waited += blockedSteps(res)
				if res.Contention.Lock.Deadlocks != 0 {
					t.Fatalf("one row cannot deadlock; %s", ctx)
				}
				switch {
				case res.Committed[1] && res.Committed[2]:
					if overlap(order, 1, 2) && mc.platform == core.PlatformCommercial {
						t.Fatalf("commercial select-for-update let concurrent writers both commit; %s", ctx)
					}
				case res.Committed[1]:
					if res.Final["x"] != 2 {
						t.Fatalf("t1 alone committed, x = %d; %s", res.Final["x"], ctx)
					}
				case res.Committed[2]:
					if res.Final["x"] != 5 {
						t.Fatalf("t2 alone committed, x = %d; %s", res.Final["x"], ctx)
					}
				default:
					t.Fatalf("nobody committed; %s", ctx)
				}
				if !res.Report.Serializable {
					t.Fatalf("not serializable: %s; %s", res.Report.Describe(), ctx)
				}
			})
			if waited == 0 {
				t.Fatal("no interleaving made a transaction wait")
			}
		})
	}
}
