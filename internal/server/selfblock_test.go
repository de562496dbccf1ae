package server

import (
	"testing"
	"time"

	"sicost/internal/core"
)

// TestSelfBlockAcrossSessions: two sessions that conflict are two
// connections, each with a goroutine of its own, so the blocked one is
// released by the other's COMMIT and by nothing else. Sixteen sessions
// used to share one connection's goroutine: a session waiting on a
// sibling's lock wedged the connection, and only the statement deadline
// got it back. The deadline is off here — no timeout is involved.
func TestSelfBlockAcrossSessions(t *testing.T) {
	db := newBankDB(t, 4)
	_, addr := startServer(t, Config{DB: db, StatementDeadline: -1})
	c1, c2 := dial(t, addr), dial(t, addr)
	defer c1.nc.Close()
	defer c2.nc.Close()

	c1.mustOK("BEGIN")
	c1.mustOK("UPDATE Checking SET Balance = Balance + 1 WHERE CustomerId = 1")
	c2.mustOK("BEGIN")

	waits := db.Contention().Lock.Waits
	done := make(chan Response, 1)
	go func() { done <- c2.send("UPDATE Checking SET Balance = Balance + 2 WHERE CustomerId = 1") }()
	waitFor(t, "second connection to block on the first one's row lock", func() bool {
		return db.Contention().Lock.Waits > waits
	})
	select {
	case r := <-done:
		t.Fatalf("conflicting UPDATE answered while the first writer was still open: %+v", r)
	default:
	}

	c1.mustOK("COMMIT")
	select {
	case r := <-done:
		// First updater wins: the waiter learns of the concurrent commit
		// and fails, retriable. (Under 2PL it would proceed instead.)
		if r.Abort != core.AbortSerialization.String() || !r.Retriable {
			t.Fatalf("blocked UPDATE after the holder's COMMIT -> %+v, want a retriable serialization failure", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked UPDATE still waiting 5s after the lock holder committed")
	}
	c2.mustOK("ROLLBACK")
}
