package histories

// Schedule is a named step-level interleaving from the paper (or its
// reference lineage), expressed in this package's DSL so it can be
// replayed by the deterministic scheduler in internal/detsim. Each
// schedule is a concrete witness: a
// specific interleaving whose outcome differs across concurrency-control
// modes and platforms, which is exactly what the paper's §II argues from.
type Schedule struct {
	Name string
	// Section cites the paper section (or reference) the interleaving
	// illustrates.
	Section string
	// Script is the interleaving in the histories DSL.
	Script string
	// Items pre-loads the table (nil means the runner's default x=y=z=0).
	Items map[string]int64
	// Doc explains what the interleaving demonstrates.
	Doc string
}

// The paper's anomaly interleavings as replayable schedule scripts. Tests
// in internal/detsim assert the per-mode outcomes; EXPERIMENTS.md maps
// each entry to its test.
var (
	// WriteSkew is the canonical SI anomaly of §II-B: two transactions
	// each read both items (seeing x+y = 100), then disjointly overdraw
	// one item each. Under plain SI both commit and the invariant
	// x+y >= 0 is violated; S2PL and SSI prevent it.
	WriteSkew = Schedule{
		Name:    "write-skew",
		Section: "§II-B",
		Script:  "b1 b2 r1(x) r1(y) r2(x) r2(y) w1(x,-10) w2(y,-10) c1 c2",
		Items:   map[string]int64{"x": 50, "y": 50},
		Doc: "both transactions see x+y=100 and withdraw 60 from different " +
			"items; committing both leaves x+y=-20",
	}

	// PromotionSFUGap is the §II-C interleaving: the write-skew pair with
	// t1's read of y promoted to SELECT FOR UPDATE (the promotion
	// strategy applied to the vulnerable edge t1->t2). The commercial
	// platform treats the committed sfu like a write, so t2's blocked
	// w2(y) aborts on wakeup; PostgreSQL's FOR UPDATE leaves no trace
	// after commit, so the identical interleaving still commits write
	// skew — the gap the paper calls out.
	PromotionSFUGap = Schedule{
		Name:    "promotion-sfu-gap",
		Section: "§II-C",
		Script:  "b1 b2 u1(y) r1(x) r2(x) r2(y) w1(x,-10) w2(y,-10) c1 c2",
		Items:   map[string]int64{"x": 50, "y": 50},
		Doc: "promotion via FOR UPDATE closes the anomaly on the commercial " +
			"platform but not on PostgreSQL",
	}

	// ReadOnlyAnomaly is the read-only transaction anomaly of Fekete,
	// O'Neil & O'Neil (2004), the paper's reference for why even
	// read-only programs participate in dangerous structures. Without t3
	// the history of t1 (withdraw from y, seeing neither account funded)
	// and t2 (deposit into x) is serializable as t1;t2 — but t3's
	// snapshot (after t2's deposit, before t1's overdraft) is
	// inconsistent with that order, closing the cycle t1->t2->t3->t1.
	ReadOnlyAnomaly = Schedule{
		Name:    "read-only-anomaly",
		Section: "§II-B (Fekete/O'Neil/O'Neil 2004)",
		Script:  "b1 r1(x) r1(y) b2 r2(x) w2(x,20) c2 b3 r3(x) r3(y) c3 w1(y,-11) c1",
		Items:   map[string]int64{"x": 0, "y": 0},
		Doc: "t3 observes t2's deposit but not t1's withdrawal, forcing " +
			"t1 after t3 and before t2 simultaneously",
	}

	// LostUpdateFUW shows the First-Updater-Wins rule both platforms
	// share (§II-A): t2's write blocks behind t1's row lock and, once t1
	// commits, aborts with a serialization failure instead of silently
	// losing t1's update.
	LostUpdateFUW = Schedule{
		Name:    "lost-update-fuw",
		Section: "§II-A",
		Script:  "b1 b2 r1(x) r2(x) w1(x,1) w2(x,2) c1 c2",
		Items:   map[string]int64{"x": 0},
		Doc: "concurrent writers of one row: the second blocks, then " +
			"aborts when the first commits (FUW); under 2PL the same " +
			"script ends in an upgrade deadlock",
	}
)

// PaperSchedules lists every named schedule, in presentation order.
func PaperSchedules() []Schedule {
	return []Schedule{WriteSkew, PromotionSFUGap, ReadOnlyAnomaly, LostUpdateFUW}
}
