package core

import (
	"errors"
	"fmt"
)

// Sentinel errors of the transaction engine. Application code (the
// SmallBank programs, the workload driver) distinguishes retriable
// concurrency failures (serialization, deadlock) from semantic rollbacks
// and hard errors.
var (
	// ErrSerialization is the engine's "could not serialize access"
	// failure: under First-Updater-Wins SI the transaction attempted to
	// write (or select-for-update) a row already updated by a concurrent
	// committed transaction, or SSI aborted a dangerous pivot. It is
	// always safe to retry the whole transaction.
	ErrSerialization = errors.New("engine: could not serialize access due to concurrent update")

	// ErrDeadlock is raised when the lock manager chooses the requesting
	// transaction as a deadlock victim. Retriable.
	ErrDeadlock = errors.New("engine: deadlock detected")

	// ErrLockTimeout is raised when a lock wait exceeds the
	// transaction's lock-wait deadline (PostgreSQL's lock_timeout).
	// Retriable: the whole transaction reruns, like a deadlock victim.
	ErrLockTimeout = errors.New("engine: lock wait timeout exceeded")

	// ErrOverload is returned by Begin when the admission gate's wait
	// queue is full and the transaction is shed rather than queued.
	// Retriable: the condition is transient — clients should back off
	// (ideally against a shared retry budget) and resubmit.
	ErrOverload = errors.New("engine: overloaded, transaction shed by admission control")

	// ErrTxDeadline is returned when a transaction's deadline expires —
	// in the admission queue, during a lock wait, between statements, or
	// while waiting for its WAL flush group. Not retriable by default:
	// the interaction's time budget is spent, so rerunning against an
	// already-expired deadline cannot succeed. Callers that set a fresh
	// deadline per attempt may retry explicitly.
	ErrTxDeadline = errors.New("engine: transaction deadline exceeded")

	// ErrShuttingDown is returned by Begin (and every statement of the
	// rejected handle) once DB.Close has started draining. Not
	// retriable: clients should stop submitting work.
	ErrShuttingDown = errors.New("engine: database shutting down")

	// ErrNotFound is returned by point reads that match no visible row.
	ErrNotFound = errors.New("engine: row not found")

	// ErrUniqueViolation is returned when an insert or update would
	// duplicate a unique-constrained value.
	ErrUniqueViolation = errors.New("engine: unique constraint violation")

	// ErrTxDone is returned on any use of a committed or aborted
	// transaction handle.
	ErrTxDone = errors.New("engine: transaction already finished")

	// ErrRollback signals an application-initiated rollback (for example
	// a negative deposit amount in DepositChecking). It is not retriable:
	// the transaction's semantics rejected its inputs.
	ErrRollback = errors.New("engine: transaction rolled back by application")

	// ErrWALClosed is returned when a commit races the shutdown of the
	// simulated log device.
	ErrWALClosed = errors.New("wal: log device closed")

	// ErrSnapshotTooOld is returned by a read as of a CSN the snapshot
	// horizon has passed (DB.ScanAsOf): version chains have been pruned
	// behind the horizon, so the engine can no longer vouch for the
	// state at that CSN. Transactions never see it — an open
	// transaction's snapshot holds the horizon back.
	ErrSnapshotTooOld = errors.New("engine: snapshot too old, versions pruned behind the horizon")

	// ErrInjected is the base error used by failure-injection tests.
	ErrInjected = errors.New("engine: injected fault")
)

// IsRetriable reports whether err indicates a transient concurrency
// failure for which the standard SI discipline is "abort and rerun the
// whole transaction".
func IsRetriable(err error) bool {
	return errors.Is(err, ErrSerialization) || errors.Is(err, ErrDeadlock) ||
		errors.Is(err, ErrLockTimeout) || errors.Is(err, ErrOverload)
}

// AbortReason classifies why a transaction attempt did not commit; the
// workload driver aggregates these per transaction type (Figure 6 of the
// paper counts the ErrSerialization class).
type AbortReason uint8

// Abort reason classes.
const (
	AbortNone AbortReason = iota
	AbortSerialization
	AbortDeadlock
	AbortLockTimeout
	// AbortDeadline: the transaction's deadline expired (admission
	// queue, lock wait, statement, or WAL flush-group wait).
	AbortDeadline
	// AbortOverload: the admission gate shed the transaction because
	// its wait queue was full.
	AbortOverload
	AbortApplication
	AbortWAL
	AbortInjected
	// AbortOther must stay last: metrics counters and the trace
	// validator size and bound their reason tables by it. New classes
	// go above. In-memory renumbering is safe — the JSONL trace wire
	// format carries reason *names*, not ordinals.
	AbortOther
)

// String names the abort class.
func (a AbortReason) String() string {
	switch a {
	case AbortNone:
		return "none"
	case AbortSerialization:
		return "serialization"
	case AbortDeadlock:
		return "deadlock"
	case AbortLockTimeout:
		return "lock-timeout"
	case AbortDeadline:
		return "deadline"
	case AbortOverload:
		return "overload"
	case AbortApplication:
		return "application"
	case AbortWAL:
		return "wal"
	case AbortInjected:
		return "injected"
	case AbortOther:
		return "other"
	default:
		return fmt.Sprintf("abort(%d)", uint8(a))
	}
}

// ClassifyAbort maps an error from a transaction attempt to its class.
// Injected faults are checked before the WAL class so a fault spec that
// wraps both reports as the injection it is.
func ClassifyAbort(err error) AbortReason {
	switch {
	case err == nil:
		return AbortNone
	case errors.Is(err, ErrSerialization):
		return AbortSerialization
	case errors.Is(err, ErrDeadlock):
		return AbortDeadlock
	case errors.Is(err, ErrLockTimeout):
		return AbortLockTimeout
	case errors.Is(err, ErrTxDeadline):
		return AbortDeadline
	case errors.Is(err, ErrOverload):
		return AbortOverload
	case errors.Is(err, ErrRollback):
		return AbortApplication
	case errors.Is(err, ErrInjected):
		return AbortInjected
	case errors.Is(err, ErrWALClosed):
		return AbortWAL
	default:
		return AbortOther
	}
}
