package detsim

import (
	"fmt"
	"sort"
	"strings"

	"sicost/internal/core"
	"sicost/internal/histories"
)

// ExploreConfig describes a small transaction set to explore
// exhaustively.
type ExploreConfig struct {
	Mode     core.CCMode
	Platform core.Platform
	// Items pre-loads the table (default x=y=z=0).
	Items map[string]int64
	// Txns are the transaction programs, one script each in the
	// histories DSL *without* transaction numbers ("r(x) w(y,1)").
	// A begin step is prepended and a commit appended automatically, and
	// both are schedulable steps: where a transaction takes its snapshot
	// and where it commits are exactly the choices SI anomalies hinge on.
	Txns []string
	// MaxSchedules aborts the exploration if the interleaving count
	// exceeds it (default 100000) — a guard against accidentally large
	// inputs, not a sampling knob: within the limit the exploration is
	// exhaustive.
	MaxSchedules int
	// OnlineCheck runs every finalized schedule's trace stream through
	// the online windowed checker too, and fails the exploration with
	// an error if its serializability verdict ever diverges from the
	// post-hoc MVSG analysis — exhaustive cross-validation of the two
	// checkers over every interleaving.
	OnlineCheck bool
}

// Outcome is the observable result of one complete schedule, quotiented
// over everything that should not matter (engine transaction ids,
// wall-clock): which transactions committed, how the others failed, the
// final database state, and the serializability verdict.
type Outcome struct {
	// Committed lists the committed transaction numbers, ascending.
	Committed []int
	// Failed maps failed transaction numbers to the abort class.
	Failed map[int]core.AbortReason
	// Final is the committed end state of every item.
	Final map[string]int64
	// Serializable is the checker's verdict over the committed history.
	Serializable bool
	// Anomaly is the checker's classification when not serializable
	// ("write skew", ...).
	Anomaly string
}

// Signature renders the outcome canonically for deduplication.
func (o Outcome) Signature() string {
	var b strings.Builder
	b.WriteString("committed=")
	for i, t := range o.Committed {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "t%d", t)
	}
	var failed []int
	for t := range o.Failed {
		failed = append(failed, t)
	}
	sort.Ints(failed)
	b.WriteString(" failed=")
	for i, t := range failed {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "t%d:%s", t, o.Failed[t])
	}
	var items []string
	for k := range o.Final {
		items = append(items, k)
	}
	sort.Strings(items)
	b.WriteString(" state=")
	for i, k := range items {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%d", k, o.Final[k])
	}
	if o.Serializable {
		b.WriteString(" serializable")
	} else {
		fmt.Fprintf(&b, " anomaly(%s)", o.Anomaly)
	}
	return b.String()
}

// ScheduleOutcome pairs one deduplicated outcome with how often it was
// reached and one witness schedule.
type ScheduleOutcome struct {
	Outcome Outcome
	// Count is the number of distinct interleavings reaching it.
	Count int
	// Example is a witness dispatch order, rendered as a script in the
	// histories DSL — replayable with Runner.Run.
	Example string
}

// ExploreResult aggregates an exhaustive exploration.
type ExploreResult struct {
	// Schedules is the total number of complete interleavings explored.
	Schedules int
	// Outcomes are the distinct outcomes, sorted by signature.
	Outcomes []ScheduleOutcome
}

// NonSerializable returns the outcomes whose committed history the
// checker rejected.
func (r *ExploreResult) NonSerializable() []ScheduleOutcome {
	var out []ScheduleOutcome
	for _, so := range r.Outcomes {
		if !so.Outcome.Serializable {
			out = append(out, so)
		}
	}
	return out
}

// Serializable reports whether every explored interleaving yielded a
// serializable committed history.
func (r *ExploreResult) Serializable() bool { return len(r.NonSerializable()) == 0 }

// Describe renders the exploration summary.
func (r *ExploreResult) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "explored %d interleavings, %d distinct outcomes:\n", r.Schedules, len(r.Outcomes))
	for _, so := range r.Outcomes {
		fmt.Fprintf(&b, "  %6d× %s\n          e.g. %s\n", so.Count, so.Outcome.Signature(), so.Example)
	}
	return b.String()
}

// parsePrograms turns the per-transaction scripts into numbered step
// programs (begin prepended, commit appended).
func parsePrograms(txns []string) (map[int][]histories.Step, error) {
	progs := make(map[int][]histories.Step, len(txns))
	for i, script := range txns {
		txn := i + 1
		var numbered []string
		numbered = append(numbered, fmt.Sprintf("b%d", txn))
		for _, tok := range strings.Fields(script) {
			if len(tok) == 0 {
				continue
			}
			switch tok[0] {
			case 'r', 'w', 'u':
				numbered = append(numbered, fmt.Sprintf("%c%d%s", tok[0], txn, tok[1:]))
			case 'b', 'c', 'a':
				return nil, fmt.Errorf("detsim: program %d: begin/commit/abort are added automatically (got %q)", txn, tok)
			default:
				return nil, fmt.Errorf("detsim: program %d: unknown op %q", txn, tok)
			}
		}
		numbered = append(numbered, fmt.Sprintf("c%d", txn))
		steps, err := histories.Parse(strings.Join(numbered, " "))
		if err != nil {
			return nil, err
		}
		progs[txn] = steps
	}
	return progs, nil
}

// Explore exhaustively runs every interleaving of the configured
// transactions: at each point it branches over every runnable
// transaction (blocked transactions are not schedulable — their pending
// step resolves when another transaction's step wakes them, exactly as
// in the engine). Each complete schedule is executed on a fresh database
// and its Outcome recorded; the result aggregates the distinct outcomes.
//
// A schedule that ends with a lock still held — in the table or in a
// row's owner word — or a waiter still queued fails the exploration.
//
// This is stateless-model-checking-style exploration by replay: a prefix
// of dispatch choices is deterministic (the scheduler never races), so
// re-running a prefix from scratch reaches the identical state.
func Explore(cfg ExploreConfig) (*ExploreResult, error) {
	if len(cfg.Txns) == 0 {
		return nil, fmt.Errorf("detsim: no transactions to explore")
	}
	progs, err := parsePrograms(cfg.Txns)
	if err != nil {
		return nil, err
	}
	maxSchedules := cfg.MaxSchedules
	if maxSchedules == 0 {
		maxSchedules = 100000
	}
	runner := Runner{Mode: cfg.Mode, Platform: cfg.Platform, Items: cfg.Items, OnlineCheck: cfg.OnlineCheck}

	res := &ExploreResult{}
	seen := make(map[string]*ScheduleOutcome)

	var dfs func(prefix []int) error
	dfs = func(prefix []int) error {
		r, runnable, err := runner.RunSchedule(progs, prefix, true)
		if err != nil {
			return fmt.Errorf("detsim: schedule %v: %w", prefix, err)
		}
		if r.HeldLocks != 0 || r.QueuedLocks != 0 {
			return fmt.Errorf("detsim: schedule %v: %d locks held and %d waiters queued after every transaction ended",
				prefix, r.HeldLocks, r.QueuedLocks)
		}
		if cfg.OnlineCheck && r.Online != nil && r.Online.Serializable != r.Report.Serializable {
			return fmt.Errorf("detsim: schedule %v: online checker says serializable=%v, MVSG analysis says %v\nonline: %soffline: %s",
				prefix, r.Online.Serializable, r.Report.Serializable, r.Online.Describe(), r.Report.Describe())
		}
		if len(runnable) == 0 {
			// Complete: every transaction finished (a stuck-all-blocked
			// state is impossible with deadlock detection, but would
			// surface here as Stuck steps in the outcome).
			res.Schedules++
			if res.Schedules > maxSchedules {
				return fmt.Errorf("detsim: exploration exceeds %d schedules", maxSchedules)
			}
			o := outcomeOf(r)
			sig := o.Signature()
			if so := seen[sig]; so != nil {
				so.Count++
			} else {
				seen[sig] = &ScheduleOutcome{Outcome: o, Count: 1, Example: renderSchedule(progs, prefix)}
			}
			return nil
		}
		for _, t := range runnable {
			next := append(append([]int(nil), prefix...), t)
			if err := dfs(next); err != nil {
				return err
			}
		}
		return nil
	}
	if err := dfs(nil); err != nil {
		return nil, err
	}

	sigs := make([]string, 0, len(seen))
	for sig := range seen {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		res.Outcomes = append(res.Outcomes, *seen[sig])
	}
	return res, nil
}

// outcomeOf projects a finalized Result onto its Outcome.
func outcomeOf(r *Result) Outcome {
	o := Outcome{
		Failed:       make(map[int]core.AbortReason),
		Final:        r.Final,
		Serializable: r.Report.Serializable,
	}
	for txn := range r.Committed {
		o.Committed = append(o.Committed, txn)
	}
	sort.Ints(o.Committed)
	for txn, err := range r.Errs {
		if err != nil {
			o.Failed[txn] = core.ClassifyAbort(err)
		} else {
			o.Failed[txn] = core.AbortOther
		}
	}
	if !o.Serializable {
		o.Anomaly = r.Report.Classify()
	}
	return o
}

// renderSchedule turns a dispatch order back into a flat DSL script.
func renderSchedule(progs map[int][]histories.Step, order []int) string {
	next := make(map[int]int, len(progs))
	var toks []string
	for _, t := range order {
		s := progs[t][next[t]]
		next[t]++
		toks = append(toks, formatStep(s))
	}
	return strings.Join(toks, " ")
}
