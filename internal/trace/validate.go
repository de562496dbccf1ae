package trace

import (
	"fmt"

	"sicost/internal/core"
)

// ValidateOptions tunes Validate's strictness.
type ValidateOptions struct {
	// AllowGaps relaxes the pairing invariants (begin-before-use, one
	// terminal event, wait/wake matching) for traces recorded with
	// Recorder.Dropped() > 0, where events are legitimately missing.
	// Schema-level checks (known kinds, taxonomy reasons, non-negative
	// depths and waits) still apply.
	AllowGaps bool
}

// lockKey identifies one row lock inside one transaction for wait/wake
// pairing.
type lockKey struct {
	tx    uint64
	table string
	key   core.Value
}

// txState tracks per-transaction lifecycle progress during validation.
type txState struct {
	begun      bool
	terminated Kind // EvCommit or EvAbort once seen
	hasTerm    bool
}

// Validate checks the lifecycle invariants of an event stream (as
// drained from a Recorder or parsed from JSONL):
//
//   - every event kind and reason code is within the schema;
//   - every transaction-scoped event follows that transaction's EvBegin;
//   - each transaction begins at most once and terminates at most once
//     (one EvCommit or one EvAbort, never both);
//   - every EvLockWake matches an outstanding EvLockWait by the same
//     transaction on the same table/key;
//   - queue depths, wait times and byte counts are non-negative.
//
// The stream must be in recorded order (Drain's output order). It
// returns nil when every invariant holds, or an error naming the first
// violating event.
func Validate(events []Event) error {
	return ValidateWith(events, ValidateOptions{})
}

// ValidateWith is Validate with options.
func ValidateWith(events []Event, opts ValidateOptions) error {
	txs := make(map[uint64]*txState)
	waits := make(map[lockKey]int)
	for i := range events {
		ev := &events[i]
		if int(ev.Kind) >= int(numKinds) {
			return fmt.Errorf("event %d: unknown kind %d", i, ev.Kind)
		}
		if ev.Depth < 0 || ev.WaitNS < 0 || ev.Bytes < 0 {
			return fmt.Errorf("event %d (%s): negative magnitude (depth=%d wait=%d bytes=%d)",
				i, ev.Kind, ev.Depth, ev.WaitNS, ev.Bytes)
		}
		switch ev.Kind {
		case EvAbort, EvLockWake:
			if ev.Reason > uint8(core.AbortOther) {
				return fmt.Errorf("event %d (%s): reason %d outside the abort taxonomy", i, ev.Kind, ev.Reason)
			}
		case EvConflict:
			if ev.Reason >= numConflicts {
				return fmt.Errorf("event %d (conflict): unknown conflict cause %d", i, ev.Reason)
			}
		}
		if ev.Kind == EvWALFlush || ev.Kind == EvRecovery ||
			ev.Kind == EvCkptBegin || ev.Kind == EvCkptEnd {
			continue // device-level: not transaction-scoped
		}
		if ev.Tx == 0 {
			return fmt.Errorf("event %d (%s): transaction-scoped event with tx id 0", i, ev.Kind)
		}
		st := txs[ev.Tx]
		if st == nil {
			st = &txState{}
			txs[ev.Tx] = st
		}
		if ev.Kind == EvBegin {
			if st.begun && !opts.AllowGaps {
				return fmt.Errorf("event %d: duplicate begin for tx %d", i, ev.Tx)
			}
			st.begun = true
			continue
		}
		if !st.begun && !opts.AllowGaps {
			return fmt.Errorf("event %d (%s): tx %d has no preceding begin", i, ev.Kind, ev.Tx)
		}
		if st.hasTerm && !opts.AllowGaps {
			return fmt.Errorf("event %d (%s): tx %d already terminated with %s", i, ev.Kind, ev.Tx, st.terminated)
		}
		switch ev.Kind {
		case EvCommit, EvAbort:
			st.hasTerm = true
			st.terminated = ev.Kind
		case EvLockWait:
			waits[lockKey{ev.Tx, ev.Table, ev.Key}]++
		case EvLockWake:
			k := lockKey{ev.Tx, ev.Table, ev.Key}
			if waits[k] == 0 {
				if !opts.AllowGaps {
					return fmt.Errorf("event %d: lock-wake for tx %d on %s/%s without outstanding lock-wait",
						i, ev.Tx, ev.Table, ev.Key)
				}
			} else {
				waits[k]--
			}
		}
	}
	if !opts.AllowGaps {
		for k, n := range waits {
			if n > 0 {
				return fmt.Errorf("tx %d: %d lock-wait(s) on %s/%s never woke", k.tx, n, k.table, k.key)
			}
		}
	}
	return nil
}

// Summary aggregates an event stream for human-readable reporting
// (cmd/tracecheck, the observability walkthrough).
type Summary struct {
	// Events is the total event count; PerKind breaks it down.
	Events  int
	PerKind [numKinds]int
	// TxBegun/TxCommitted/TxAborted count distinct transactions by
	// outcome.
	TxBegun     int
	TxCommitted int
	TxAborted   int
	// AbortReasons counts EvAbort events by taxonomy reason name.
	AbortReasons map[string]int
	// Conflicts counts EvConflict events by cause name.
	Conflicts map[string]int
}

// Summarize tallies an event stream.
func Summarize(events []Event) Summary {
	s := Summary{
		AbortReasons: make(map[string]int),
		Conflicts:    make(map[string]int),
	}
	for i := range events {
		ev := &events[i]
		s.Events++
		if int(ev.Kind) < int(numKinds) {
			s.PerKind[ev.Kind]++
		}
		switch ev.Kind {
		case EvBegin:
			s.TxBegun++
		case EvCommit:
			s.TxCommitted++
		case EvAbort:
			s.TxAborted++
			s.AbortReasons[core.AbortReason(ev.Reason).String()]++
		case EvConflict:
			s.Conflicts[ConflictName(ev.Reason)]++
		}
	}
	return s
}

// String renders the summary as a short multi-line report.
func (s Summary) String() string {
	out := fmt.Sprintf("events=%d tx: begun=%d committed=%d aborted=%d\n",
		s.Events, s.TxBegun, s.TxCommitted, s.TxAborted)
	out += "per-kind:"
	for k := Kind(0); k < numKinds; k++ {
		if s.PerKind[k] > 0 {
			out += fmt.Sprintf(" %s=%d", k, s.PerKind[k])
		}
	}
	if len(s.AbortReasons) > 0 {
		out += "\nabort-reasons:"
		for r := core.AbortNone; r <= core.AbortOther; r++ {
			if n := s.AbortReasons[r.String()]; n > 0 {
				out += fmt.Sprintf(" %s=%d", r, n)
			}
		}
	}
	if len(s.Conflicts) > 0 {
		out += "\nconflicts:"
		for c := uint8(0); c < numConflicts; c++ {
			if n := s.Conflicts[ConflictName(c)]; n > 0 {
				out += fmt.Sprintf(" %s=%d", ConflictName(c), n)
			}
		}
	}
	return out
}
