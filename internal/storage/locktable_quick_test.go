package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"sicost/internal/core"
)

// Property-based equivalence: a sharded lock table must be observably
// indistinguishable from the single-mutex degenerate case
// (NewLockTableStriped(1), which is the pre-sharding design). Random
// acquire/release/upgrade/release-all scripts run against both tables in
// lock step; after every operation the outcome (granted / blocked /
// deadlock victim), the wake events it caused, and the complete
// observable state (holds, queue lengths, held-key sets) must agree.
//
// The scripts are driven deterministically from one goroutine: a
// blocking Acquire is detected through the OnWait hook (which fires
// synchronously before the requester parks), and wake-ups only ever
// happen inside a release operation issued by the driver, observed
// synchronously through OnWake. Cross-key wake order is not part of the
// contract (the old design granted in map-iteration order), so wake
// events are compared as sorted sets.

const (
	quickTxns = 4
	quickKeys = 6
)

// qop is one generated script step. testing/quick fills the fields with
// random bytes; the harness reduces them to the valid ranges.
type qop struct {
	Kind uint8 // 0-1: acquire, 2: release, 3: release-all
	Tx   uint8
	Key  uint8
	Mode uint8
}

func (op qop) tx() uint64     { return uint64(op.Tx%quickTxns) + 1 }
func (op qop) key() LockKey   { return slk(int(op.Key % quickKeys)) }
func (op qop) mode() LockMode { return LockMode(op.Mode % 2) }
func (op qop) describe() string {
	switch op.Kind % 4 {
	case 2:
		return fmt.Sprintf("release(t%d,k%d)", op.tx(), op.Key%quickKeys)
	case 3:
		return fmt.Sprintf("releaseAll(t%d)", op.tx())
	default:
		return fmt.Sprintf("acquire(t%d,k%d,%v)", op.tx(), op.Key%quickKeys, op.mode())
	}
}

// qwake is one observed wake event (ejected reports grant-or-eject).
type qwake struct {
	tx      uint64
	key     LockKey
	ejected bool
}

// qpending is one in-flight blocked Acquire.
type qpending struct {
	key  LockKey
	done chan error
}

// qharness drives one lock table through a script.
type qharness struct {
	lt      *LockTable
	waitCh  chan struct{}
	mu      sync.Mutex
	wakes   []qwake
	pending map[uint64]qpending

	// rowLocks makes the harness the engine's SI modes in miniature:
	// every request is exclusive, and goes through AcquireRowUntil when
	// rows is set (through the table alone when it is not); thin is what
	// each transaction then has to hand back. Locks are only released
	// all at once, as a transaction's end releases them.
	rowLocks bool
	rows     map[LockKey]*Row
	thin     map[uint64][]*Row
}

func newQHarness(stripes int) *qharness {
	h := &qharness{
		lt:      NewLockTableStriped(stripes),
		waitCh:  make(chan struct{}, 1),
		pending: make(map[uint64]qpending),
		thin:    make(map[uint64][]*Row),
	}
	h.lt.SetHooks(WaitHooks{
		OnWait: func(tx uint64, key LockKey) {
			h.waitCh <- struct{}{}
		},
		OnWake: func(tx uint64, key LockKey, err error) {
			h.mu.Lock()
			h.wakes = append(h.wakes, qwake{tx: tx, key: key, ejected: err != nil})
			h.mu.Unlock()
		},
	})
	return h
}

// takeWakes returns and clears the wake events recorded since the last
// call, sorted (cross-key wake order is not part of the contract).
func (h *qharness) takeWakes() []qwake {
	h.mu.Lock()
	out := h.wakes
	h.wakes = nil
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].tx != out[j].tx {
			return out[i].tx < out[j].tx
		}
		return out[i].key.Key.Less(out[j].key.Key)
	})
	return out
}

// settleWakes receives the completion of every blocked Acquire resolved
// by the last operation, checking grant/eject agreement.
func (h *qharness) settleWakes(wakes []qwake) error {
	for _, w := range wakes {
		p, ok := h.pending[w.tx]
		if !ok {
			return fmt.Errorf("wake for t%d with no pending op", w.tx)
		}
		select {
		case err := <-p.done:
			if (err != nil) != w.ejected {
				return fmt.Errorf("t%d: wake ejected=%v but Acquire returned %v", w.tx, w.ejected, err)
			}
			if err != nil && !errors.Is(err, core.ErrDeadlock) {
				return fmt.Errorf("t%d: ejection returned %v", w.tx, err)
			}
			delete(h.pending, w.tx)
		case <-time.After(5 * time.Second):
			return fmt.Errorf("t%d: woken Acquire did not return", w.tx)
		}
	}
	return nil
}

// newRowQHarness is a harness whose requests are all exclusive, taken
// through the rows when thin is set and through the table when not.
func newRowQHarness(stripes int, thin bool) *qharness {
	h := newQHarness(stripes)
	h.rowLocks = true
	if thin {
		h.rows = make(map[LockKey]*Row)
		for k := 0; k < quickKeys; k++ {
			h.rows[slk(k)] = &Row{}
		}
	}
	return h
}

// acquire runs one Acquire to its synchronous outcome: granted,
// deadlock-denied, or parked in the wait queue.
func (h *qharness) acquire(tx uint64, key LockKey, mode LockMode) (string, error) {
	done := make(chan error, 1)
	row := h.rows[key]
	var thin bool // a grant that follows a wait is never thin
	go func() {
		if row == nil {
			done <- h.lt.Acquire(tx, key, mode)
			return
		}
		var err error
		thin, err = h.lt.AcquireRowUntil(tx, key, row, 0, time.Time{})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			if thin {
				h.thin[tx] = append(h.thin[tx], row)
			}
			return "granted", nil
		}
		if errors.Is(err, core.ErrDeadlock) {
			return "deadlock", nil
		}
		return "", fmt.Errorf("unexpected acquire error: %v", err)
	case <-h.waitCh:
		h.pending[tx] = qpending{key: key, done: done}
		return "blocked", nil
	case <-time.After(5 * time.Second):
		return "", fmt.Errorf("acquire(t%d) neither returned nor queued", tx)
	}
}

// step executes one script op and returns its observable outcome,
// including any wake events, as a canonical string.
func (h *qharness) step(op qop) (string, error) {
	kind, mode := op.Kind%4, op.mode()
	if h.rowLocks {
		mode = Exclusive
		if kind == 2 {
			kind = 3
		}
	}
	switch kind {
	case 2:
		h.lt.Release(op.tx(), op.key())
	case 3:
		h.releaseAll(op.tx())
	default:
		if _, blocked := h.pending[op.tx()]; blocked {
			// A transaction parked in the queue cannot issue statements;
			// the op degenerates to a no-op in both harnesses (pending
			// sets are compared after every step, so this agrees).
			return "skipped", nil
		}
		return h.acquire(op.tx(), op.key(), mode)
	}
	wakes := h.takeWakes()
	if err := h.settleWakes(wakes); err != nil {
		return "", err
	}
	return fmt.Sprintf("ok wakes=%v", wakes), nil
}

// releaseAll ends tx: everything it holds, thin or in the table, goes.
func (h *qharness) releaseAll(tx uint64) {
	h.lt.ReleaseTx(tx, h.thin[tx])
	delete(h.thin, tx)
}

// observe captures the complete observable state: per-(tx,key) holds,
// per-key queue lengths, sorted held-key sets, the blocked set and the
// table's own count of holds and waiters. A lock held thin is a hold
// like any other here: where the lock lives is not observable.
func (h *qharness) observe() string {
	var b []byte
	for tx := uint64(1); tx <= quickTxns; tx++ {
		held := h.lt.HeldKeys(tx)
		for k := 0; k < quickKeys; k++ {
			key := slk(k)
			s, x := h.lt.Holds(tx, key, Shared), h.lt.Holds(tx, key, Exclusive)
			if row := h.rows[key]; row != nil && row.owner.Load() == tx {
				s, x = true, true
				held = append(held, key)
			}
			b = append(b, byte('0'+boolBit(s)), byte('0'+boolBit(x)))
		}
		sort.Slice(held, func(i, j int) bool { return held[i].Key.Less(held[j].Key) })
		b = append(b, fmt.Sprintf("|held%d=%v", tx, held)...)
		if p, ok := h.pending[tx]; ok {
			b = append(b, fmt.Sprintf("|blocked%d@%v", tx, p.key.Key)...)
		}
	}
	for k := 0; k < quickKeys; k++ {
		b = append(b, fmt.Sprintf("|q%d=%d", k, h.lt.QueueLen(slk(k)))...)
	}
	nHeld, nQueued := h.lt.Outstanding()
	b = append(b, fmt.Sprintf("|outstanding=%d/%d", nHeld, nQueued)...)
	return string(b)
}

func boolBit(v bool) int {
	if v {
		return 1
	}
	return 0
}

// drain ends a script: release everything so no goroutine outlives the
// property, ejecting any still-parked waiters.
func (h *qharness) drain() error {
	for tx := uint64(1); tx <= quickTxns; tx++ {
		h.releaseAll(tx)
		if err := h.settleWakes(h.takeWakes()); err != nil {
			return err
		}
	}
	if len(h.pending) != 0 {
		return fmt.Errorf("pending ops survived drain: %v", h.pending)
	}
	return nil
}

// TestQuickShardedEquivalence is the property: for random scripts, the
// sharded table and the single-stripe (pre-sharding) table agree on
// every outcome, every wake, and every observable state — including
// which transaction a deadlock denial picks as victim.
func TestQuickShardedEquivalence(t *testing.T) {
	quickEquivalence(t, "sharded",
		func() *qharness { return newQHarness(1) }, // the classic single-mutex table
		func() *qharness { return newQHarness(8) })
}

// TestQuickThinEquivalence is the same property for the lock that lives
// in the row: on random schedules of exclusive requests and transaction
// ends, taking each lock thin and entering the table only on conflict
// grants the same requests in the same order, blocks and wakes the same
// transactions, picks the same deadlock victims and counts the same
// holds and waiters as sending every request through the table.
func TestQuickThinEquivalence(t *testing.T) {
	quickEquivalence(t, "thin",
		func() *qharness { return newRowQHarness(8, false) },
		func() *qharness { return newRowQHarness(8, true) })
}

// quickEquivalence runs random scripts against a reference harness and
// the one under test (named what in failures) in lock step.
func quickEquivalence(t *testing.T, what string, newRef, newShr func() *qharness) {
	cfg := &quick.Config{
		MaxCount: 60,
		Rand:     rand.New(rand.NewSource(7)),
	}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	property := func(script []qop) bool {
		ref, shr := newRef(), newShr()
		defer func() {
			if err := ref.drain(); err != nil {
				t.Errorf("ref drain: %v", err)
			}
			if err := shr.drain(); err != nil {
				t.Errorf("%s drain: %v", what, err)
			}
		}()
		if len(script) > 64 {
			script = script[:64]
		}
		for i, op := range script {
			refOut, err := ref.step(op)
			if err != nil {
				t.Errorf("step %d %s: ref: %v", i, op.describe(), err)
				return false
			}
			shrOut, err := shr.step(op)
			if err != nil {
				t.Errorf("step %d %s: %s: %v", i, op.describe(), what, err)
				return false
			}
			if refOut != shrOut {
				t.Errorf("step %d %s: outcome diverged:\n  ref: %s\n  %s: %s",
					i, op.describe(), refOut, what, shrOut)
				return false
			}
			if refState, shrState := ref.observe(), shr.observe(); refState != shrState {
				t.Errorf("step %d %s: state diverged:\n  ref: %s\n  %s: %s",
					i, op.describe(), refState, what, shrState)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeadlockVictimAgreement pins the victim-selection contract
// with a directed script: the transaction whose request closes the
// cycle is denied, in both the sharded and single-stripe tables.
func TestQuickDeadlockVictimAgreement(t *testing.T) {
	for _, stripes := range []int{1, 8, 64} {
		h := newQHarness(stripes)
		mustOutcome := func(want string, op qop) {
			t.Helper()
			got, err := h.step(op)
			if err != nil {
				t.Fatalf("stripes=%d %s: %v", stripes, op.describe(), err)
			}
			if got != want {
				t.Fatalf("stripes=%d %s: got %s, want %s", stripes, op.describe(), got, want)
			}
		}
		mustOutcome("granted", qop{Kind: 0, Tx: 0, Key: 0, Mode: 1})  // t1 X k0
		mustOutcome("granted", qop{Kind: 0, Tx: 1, Key: 1, Mode: 1})  // t2 X k1
		mustOutcome("blocked", qop{Kind: 0, Tx: 0, Key: 1, Mode: 1})  // t1 waits for t2
		mustOutcome("deadlock", qop{Kind: 0, Tx: 1, Key: 0, Mode: 1}) // t2 closes the cycle: victim
		if err := h.drain(); err != nil {
			t.Fatalf("stripes=%d: drain: %v", stripes, err)
		}
	}
}
