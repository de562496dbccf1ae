package detsim

import (
	"sort"

	"sicost/internal/histories"
	"sicost/internal/trace"
)

// ReplayTrace converts a recorded trace into a dispatch order over the
// script transactions in progs — the bridge from a captured concurrent
// run back into the deterministic scheduler. The mapping is symbolic:
// the k-th distinct transaction to emit EvBegin in the stream is bound
// to the k-th script transaction number (ascending), and every
// statement-level event (begin, read, write, sfu, commit, abort)
// contributes one dispatch slot for its transaction. Events of
// transactions beyond the script's population, and slots beyond a
// script transaction's own step count, are dropped.
//
// The trace fixes only the interleaving; the script fixes what each
// step does. Statement events are emitted at operation start (before
// any lock wait), so a transaction's slot order equals its statement
// dispatch order — exactly what dispatchNext consumes.
func ReplayTrace(events []trace.Event, progs map[int][]histories.Step) []int {
	txns := make([]int, 0, len(progs))
	for txn := range progs {
		txns = append(txns, txn)
	}
	sort.Ints(txns)
	bound := make(map[uint64]int, len(txns))
	used := make(map[int]int, len(txns))
	var order []int
	for _, ev := range events {
		switch ev.Kind {
		case trace.EvBegin:
			if _, seen := bound[ev.Tx]; !seen && len(bound) < len(txns) {
				bound[ev.Tx] = txns[len(bound)]
			}
		case trace.EvRead, trace.EvWrite, trace.EvSFU, trace.EvCommit, trace.EvAbort:
			// statement-level: consumes a slot below
		default:
			continue // snapshot, lock, conflict, wal: not dispatch points
		}
		txn, ok := bound[ev.Tx]
		if !ok {
			continue
		}
		if used[txn] >= len(progs[txn]) {
			continue
		}
		used[txn]++
		order = append(order, txn)
	}
	return order
}

// RunTrace replays a recorded event stream as a schedule hint for the
// script: dispatches follow the trace's interleaving, with slots that
// have become invalid — the transaction finished early (the session
// discipline aborts after a retriable failure, emitting an EvAbort the
// script has no step for), is still blocked, or ran out of steps —
// skipped rather than failing the schedule. The skip count lands in
// Result.ReplaySkipped; a small value means the replay tracked the
// recording closely.
func (r Runner) RunTrace(script string, events []trace.Event) (*Result, error) {
	progs, _, err := parseProgs(script)
	if err != nil {
		return nil, err
	}
	order := ReplayTrace(events, progs)
	sc, err := newSched(r, progs)
	if err != nil {
		return nil, err
	}
	defer sc.close()
	for _, t := range order {
		st := sc.txns[t]
		if st == nil || st.finished || st.blocked || st.pending >= 0 || st.next >= len(st.prog) {
			sc.res.ReplaySkipped++
			continue
		}
		if err := sc.dispatchNext(t); err != nil {
			return nil, err
		}
	}
	if err := sc.finalize(); err != nil {
		return nil, err
	}
	return sc.res, nil
}
