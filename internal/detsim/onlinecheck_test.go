package detsim

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sicost/internal/checker"
	"sicost/internal/core"
	"sicost/internal/histories"
	"sicost/internal/onlinecheck"
	"sicost/internal/trace"
)

// onlineConfigs are the mode/platform combinations the online checker
// is cross-validated under.
var onlineConfigs = []struct {
	mode     core.CCMode
	platform core.Platform
}{
	{core.SnapshotFUW, core.PlatformPostgres},
	{core.SnapshotFUW, core.PlatformCommercial},
	{core.SerializableSI, core.PlatformPostgres},
	{core.Strict2PL, core.PlatformPostgres},
}

// TestOnlineMatchesOfflineOnPaperSchedules runs every history script of
// the paper through the online windowed checker alongside the post-hoc
// MVSG analysis, under every mode/platform, and requires verdict
// equality — the cross-validation half of the acceptance criterion.
func TestOnlineMatchesOfflineOnPaperSchedules(t *testing.T) {
	nonSer := 0
	for _, cfg := range onlineConfigs {
		for _, s := range histories.PaperSchedules() {
			r, err := Runner{
				Mode: cfg.mode, Platform: cfg.platform,
				Items: s.Items, OnlineCheck: true,
			}.Run(s.Script)
			if err != nil {
				// Some scripts are not dispatchable under every mode: a
				// step of a transaction 2PL left blocked cannot be
				// scheduled. That is a property of the schedule, not a
				// checker divergence.
				if strings.Contains(err.Error(), "blocked") {
					continue
				}
				t.Fatalf("%s under %s/%s: %v", s.Name, cfg.mode, cfg.platform, err)
			}
			if r.Online == nil {
				t.Fatalf("%s under %s/%s: no online report", s.Name, cfg.mode, cfg.platform)
			}
			if r.Online.Serializable != r.Report.Serializable {
				t.Fatalf("%s under %s/%s: online=%v offline=%v\nonline: %soffline: %s",
					s.Name, cfg.mode, cfg.platform,
					r.Online.Serializable, r.Report.Serializable,
					r.Online.Describe(), r.Report.Describe())
			}
			if !r.Online.Serializable {
				nonSer++
			}
		}
	}
	if nonSer == 0 {
		t.Fatal("no schedule produced a non-serializable execution; cross-validation is vacuous")
	}
}

// TestOnlineGoldenWriteSkew pins the online checker's structured
// violation report for the paper's write-skew schedule under plain SI:
// the cycle participants, the rw-edge chain, and the classification.
func TestOnlineGoldenWriteSkew(t *testing.T) {
	s := histories.WriteSkew
	r, err := Runner{Mode: core.SnapshotFUW, Items: s.Items, OnlineCheck: true}.Run(s.Script)
	if err != nil {
		t.Fatal(err)
	}
	if r.Online.Serializable {
		t.Fatalf("write skew not detected:\n%s", r.Online.Describe())
	}
	want := `online-checked 2 transactions, 2 edges, window peak 2 (0 retired): NOT serializable (1 cycle(s), 0 SI-rule violation(s))
  cycle (write skew): t3 --rw[H."x"]--> t2 --rw[H."y"]--> t3 [window 2, csn 2..3, watermark 0]
`
	if got := r.Online.Describe(); got != want {
		t.Fatalf("golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestOnlineGoldenReadOnlyAnomaly pins the report for the read-only
// anomaly: a three-transaction cycle through a read-only participant.
func TestOnlineGoldenReadOnlyAnomaly(t *testing.T) {
	s := histories.ReadOnlyAnomaly
	r, err := Runner{Mode: core.SnapshotFUW, Items: s.Items, OnlineCheck: true}.Run(s.Script)
	if err != nil {
		t.Fatal(err)
	}
	if r.Online.Serializable {
		t.Fatalf("read-only anomaly not detected:\n%s", r.Online.Describe())
	}
	got := r.Online.Describe()
	if !strings.Contains(got, "read-only anomaly") {
		t.Fatalf("cycle not classified as read-only anomaly:\n%s", got)
	}
	v := r.Online.Violations[0]
	if len(v.Txs) != 4 || v.Txs[0] != v.Txs[3] {
		t.Fatalf("want a closed 3-transaction cycle, got txs %v", v.Txs)
	}
	if len(v.Edges) != 3 {
		t.Fatalf("want a 3-edge witness chain, got %v", v.Edges)
	}
}

// TestOnlineExploreCrossValidation exhaustively explores small
// transaction sets under every mode with the online checker attached to
// every interleaving: Explore itself errors out on any verdict
// divergence from the MVSG analysis.
func TestOnlineExploreCrossValidation(t *testing.T) {
	sets := [][]string{
		// The write-skew pair.
		{"r(x) r(y) w(x,-10)", "r(x) r(y) w(y,-10)"},
		// Promotion via SFU (platform-sensitive).
		{"u(x) r(y) w(x,-10)", "r(x) r(y) w(y,-10)"},
	}
	for _, cfg := range onlineConfigs {
		for i, txns := range sets {
			res, err := Explore(ExploreConfig{
				Mode: cfg.mode, Platform: cfg.platform,
				Txns: txns, OnlineCheck: true,
			})
			if err != nil {
				t.Fatalf("set %d under %s/%s: %v", i, cfg.mode, cfg.platform, err)
			}
			if res.Schedules == 0 {
				t.Fatalf("set %d under %s/%s explored nothing", i, cfg.mode, cfg.platform)
			}
		}
	}
	// Sanity: plain SI on the write-skew pair must actually reach a
	// non-serializable outcome, or the equality above proves nothing.
	res, err := Explore(ExploreConfig{Mode: core.SnapshotFUW, Txns: sets[0], OnlineCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Serializable() {
		t.Fatal("SI exploration of the write-skew pair found no anomaly")
	}
}

// eventsFromTxns synthesizes a trace stream from a committed history:
// begin, the exact read set, the committed write set, commit — the same
// information the engine emits, so random oracle histories can be
// replayed through the online checker.
func eventsFromTxns(txns []checker.Txn) []trace.Event {
	var evs []trace.Event
	ts := int64(0)
	stamp := func(e trace.Event) trace.Event {
		ts++
		e.TS = ts
		return e
	}
	for _, in := range txns {
		evs = append(evs, stamp(trace.Event{Kind: trace.EvBegin, Tx: in.ID, CSN: in.StartCSN}))
		for _, r := range in.Reads {
			evs = append(evs, stamp(trace.Event{Kind: trace.EvReadVer, Tx: in.ID, Table: r.Table, Key: r.Key, CSN: r.CSN}))
		}
		for _, w := range in.Writes {
			evs = append(evs, stamp(trace.Event{Kind: trace.EvWriteVer, Tx: in.ID, Table: w.Table, Key: w.Key, CSN: w.CSN}))
		}
		evs = append(evs, stamp(trace.Event{Kind: trace.EvCommit, Tx: in.ID, CSN: in.CommitCSN, Tag: in.Tag}))
	}
	return evs
}

// TestTxnsReadBackGeneratedHistories: the stream that spells a history
// out reads back, through checker.Txns, as that history — so the random
// corpus reaches the offline analysis and the online checker as one
// input, whichever form a test hands over.
func TestTxnsReadBackGeneratedHistories(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gen := HistoryGen{}
	for i := 0; i < 500; i++ {
		h := gen.Generate(rng)
		if got := checker.Txns(eventsFromTxns(h)); !reflect.DeepEqual(got, h) {
			t.Fatalf("history %d read back differently:\n%s\nfrom\n%s", i, FormatHistory(got), FormatHistory(h))
		}
	}
}

// TestOnlineRandomCrossValidation is the online checker's version of
// the oracle fuzz: random SI-shaped histories (including stale reads no
// correct engine would produce) replayed as event streams must get the
// same serializability verdict as the brute-force serial-order search.
// Single-batch replay — exactness is the unchunked contract; the
// windowed mode is exercised by the live tests.
func TestOnlineRandomCrossValidation(t *testing.T) {
	n := 5000
	if testing.Short() {
		n = 1000
	}
	rng := rand.New(rand.NewSource(20080576))
	gen := HistoryGen{}
	nonSer := 0
	for i := 0; i < n; i++ {
		h := gen.Generate(rng)
		evs := eventsFromTxns(h)
		rep := onlinecheck.Run(evs, onlinecheck.Config{SIRules: true, Batch: len(evs) + 1})
		oracle := SerializableBrute(h)
		if rep.Serializable != oracle {
			t.Fatalf("divergence on history %d: online=%v oracle=%v\nhistory:\n%s\nonline report:\n%s",
				i, rep.Serializable, oracle, FormatHistory(h), rep.Describe())
		}
		if !oracle {
			nonSer++
		}
	}
	if nonSer == 0 || nonSer == n {
		t.Fatalf("degenerate corpus: %d/%d non-serializable", nonSer, n)
	}
	t.Logf("cross-validated %d random histories (%d non-serializable), zero divergence", n, nonSer)
}

// TestOnlineRunnerStrict2PLDisablesSIRules: under 2PL the runner must
// run the online checker without SI rules — 2PL reads newest-committed,
// which would otherwise spray future-read false positives.
func TestOnlineRunnerStrict2PLDisablesSIRules(t *testing.T) {
	s := histories.WriteSkew
	r, err := Runner{Mode: core.Strict2PL, Items: s.Items, OnlineCheck: true}.Run(s.Script)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Online.Serializable {
		t.Fatalf("2PL execution flagged non-serializable:\n%s", r.Online.Describe())
	}
	if r.Online.SIViolations != 0 {
		t.Fatalf("2PL execution flagged SI violations:\n%s", r.Online.Describe())
	}
}
