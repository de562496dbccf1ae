package detsim

import (
	"errors"
	"strings"
	"testing"

	"sicost/internal/checker"
	"sicost/internal/core"
	"sicost/internal/histories"
)

// modeCase is one (concurrency-control mode, platform) pair the paper
// distinguishes.
type modeCase struct {
	name     string
	mode     core.CCMode
	platform core.Platform
}

var allModes = []modeCase{
	{"si-postgres", core.SnapshotFUW, core.PlatformPostgres},
	{"si-commercial", core.SnapshotFUW, core.PlatformCommercial},
	{"2pl", core.Strict2PL, core.PlatformPostgres},
	{"ssi", core.SerializableSI, core.PlatformPostgres},
}

func mustRun(t *testing.T, s histories.Schedule, mc modeCase) *Result {
	t.Helper()
	res, err := Runner{Mode: mc.mode, Platform: mc.platform, Items: s.Items}.Run(s.Script)
	if err != nil {
		t.Fatalf("%s under %s: %v", s.Name, mc.name, err)
	}
	return res
}

// TestWriteSkewAcrossModes replays the §II-B write-skew interleaving —
// the identical script — under every mode: plain SI admits it on both
// platforms, S2PL and SSI prevent it.
func TestWriteSkewAcrossModes(t *testing.T) {
	s := histories.WriteSkew
	for _, mc := range allModes {
		t.Run(mc.name, func(t *testing.T) {
			res := mustRun(t, s, mc)
			admits := res.Committed[1] && res.Committed[2]
			switch mc.mode {
			case core.SnapshotFUW:
				if !admits {
					t.Fatalf("plain SI must admit write skew; got\n%s", res.Describe())
				}
				if res.Report.Serializable {
					t.Fatalf("checker missed the write-skew cycle:\n%s", res.Report.Describe())
				}
				if got := res.Report.Classify(); got != "write skew" {
					t.Fatalf("Classify() = %q, want %q", got, "write skew")
				}
				if res.Final["x"]+res.Final["y"] != -20 {
					t.Fatalf("final x+y = %d, want -20 (both overdrafts applied)", res.Final["x"]+res.Final["y"])
				}
			default:
				if admits && !res.Report.Serializable {
					t.Fatalf("%s admitted write skew:\n%s", mc.name, res.Describe())
				}
				if !res.Report.Serializable {
					t.Fatalf("%s produced a non-serializable history:\n%s", mc.name, res.Report.Describe())
				}
				if sum := res.Final["x"] + res.Final["y"]; sum < 0 {
					t.Fatalf("%s violated the invariant x+y >= 0: %d", mc.name, sum)
				}
			}
		})
	}
}

// TestWriteSkew2PLDetails pins the exact mechanics under strict 2PL:
// t1's lock upgrade on x blocks behind t2's shared lock, then t2's own
// upgrade on y closes the wait cycle and dies by deadlock detection.
func TestWriteSkew2PLDetails(t *testing.T) {
	res := mustRun(t, histories.WriteSkew, modeCase{"2pl", core.Strict2PL, core.PlatformPostgres})
	// Steps: 0:b1 1:b2 2:r1(x) 3:r1(y) 4:r2(x) 5:r2(y) 6:w1(x,-10) 7:w2(y,-10) 8:c1 9:c2
	if !res.Steps[6].Blocked || res.Steps[6].Status != OK {
		t.Fatalf("w1(x) should block on the upgrade then succeed; got %+v", res.Steps[6])
	}
	if res.Steps[7].Blocked || res.Steps[7].Status != Failed {
		t.Fatalf("w2(y) should fail synchronously by deadlock detection; got %+v", res.Steps[7])
	}
	if !errors.Is(res.Errs[2], core.ErrDeadlock) {
		t.Fatalf("t2 should die by deadlock, got %v", res.Errs[2])
	}
	if !res.Committed[1] || res.Committed[2] {
		t.Fatalf("exactly t1 should commit; got %v", res.Committed)
	}
}

// TestPromotionSFUGap replays the §II-C interleaving — the write-skew
// pair with t1's read of y promoted to SELECT FOR UPDATE — under the
// identical script on every mode. The commercial platform's committed
// SFU acts like a write and kills t2; PostgreSQL's FOR UPDATE leaves no
// trace after commit, so the anomaly still commits: the paper's gap,
// reproduced as a failing-anomaly assertion.
func TestPromotionSFUGap(t *testing.T) {
	s := histories.PromotionSFUGap
	// Steps: 0:b1 1:b2 2:u1(y) 3:r1(x) 4:r2(x) 5:r2(y) 6:w1(x,-10) 7:w2(y,-10) 8:c1 9:c2

	t.Run("si-postgres-gap", func(t *testing.T) {
		res := mustRun(t, s, modeCase{"", core.SnapshotFUW, core.PlatformPostgres})
		if !res.Steps[7].Blocked {
			t.Fatalf("w2(y) must block behind t1's FOR UPDATE lock; got %+v", res.Steps[7])
		}
		if res.Steps[7].Status != OK {
			t.Fatalf("on PostgreSQL the woken write must succeed (no SFU trace); got %+v", res.Steps[7])
		}
		if !res.Committed[1] || !res.Committed[2] {
			t.Fatalf("both must commit on PostgreSQL; got\n%s", res.Describe())
		}
		if res.Report.Serializable {
			t.Fatalf("the committed history is write skew; checker said serializable:\n%s", res.Report.Describe())
		}
		if got := res.Report.Classify(); got != "write skew" {
			t.Fatalf("Classify() = %q, want %q", got, "write skew")
		}
	})

	t.Run("si-commercial-prevented", func(t *testing.T) {
		res := mustRun(t, s, modeCase{"", core.SnapshotFUW, core.PlatformCommercial})
		if !res.Steps[7].Blocked || res.Steps[7].Status != Failed {
			t.Fatalf("w2(y) must block, then fail on wakeup (committed SFU acts like a write); got %+v", res.Steps[7])
		}
		if !errors.Is(res.Errs[2], core.ErrSerialization) {
			t.Fatalf("t2 should die with a serialization failure, got %v", res.Errs[2])
		}
		if !res.Committed[1] || res.Committed[2] {
			t.Fatalf("exactly t1 should commit; got\n%s", res.Describe())
		}
		if !res.Report.Serializable {
			t.Fatalf("committed history should be serializable:\n%s", res.Report.Describe())
		}
	})

	for _, mc := range []modeCase{
		{"2pl", core.Strict2PL, core.PlatformPostgres},
		{"ssi", core.SerializableSI, core.PlatformPostgres},
	} {
		t.Run(mc.name+"-prevented", func(t *testing.T) {
			res := mustRun(t, s, mc)
			if res.Committed[1] && res.Committed[2] && !res.Report.Serializable {
				t.Fatalf("%s admitted the anomaly:\n%s", mc.name, res.Describe())
			}
			if !res.Report.Serializable {
				t.Fatalf("%s produced a non-serializable history:\n%s", mc.name, res.Report.Describe())
			}
		})
	}
}

// TestReadOnlyAnomaly replays the Fekete/O'Neil/O'Neil history: all
// three transactions commit under plain SI and the checker pins the
// cycle on the read-only t3; SSI and 2PL prevent it.
func TestReadOnlyAnomaly(t *testing.T) {
	s := histories.ReadOnlyAnomaly
	for _, mc := range allModes {
		t.Run(mc.name, func(t *testing.T) {
			if mc.mode == core.Strict2PL {
				// Under 2PL the interleaving cannot even be scheduled: t2's
				// write upgrade blocks behind t1's shared lock, so the
				// scripted c2 is undispatchable — prevention by blocking.
				_, err := Runner{Mode: mc.mode, Platform: mc.platform, Items: s.Items}.Run(s.Script)
				if err == nil || !strings.Contains(err.Error(), "blocked") {
					t.Fatalf("2PL should block the interleaving, got err=%v", err)
				}
				return
			}
			res := mustRun(t, s, mc)
			if mc.mode == core.SnapshotFUW {
				if !res.Committed[1] || !res.Committed[2] || !res.Committed[3] {
					t.Fatalf("plain SI must commit all three; got\n%s", res.Describe())
				}
				if res.Report.Serializable {
					t.Fatalf("checker missed the read-only anomaly:\n%s", res.Report.Describe())
				}
				if got := res.Report.Classify(); got != "read-only anomaly" {
					t.Fatalf("Classify() = %q, want %q\n%s", got, "read-only anomaly", res.Report.Describe())
				}
				return
			}
			if !res.Report.Serializable {
				t.Fatalf("%s produced a non-serializable history:\n%s", mc.name, res.Report.Describe())
			}
		})
	}
}

// TestLostUpdateFUW replays the §II-A concurrent-writer script: under
// SI the second writer blocks behind the row lock and aborts on wakeup
// (First-Updater-Wins); under 2PL the same script ends in an upgrade
// deadlock. Either way no update is silently lost.
func TestLostUpdateFUW(t *testing.T) {
	s := histories.LostUpdateFUW
	// Steps: 0:b1 1:b2 2:r1(x) 3:r2(x) 4:w1(x,1) 5:w2(x,2) 6:c1 7:c2
	for _, mc := range allModes {
		t.Run(mc.name, func(t *testing.T) {
			res := mustRun(t, s, mc)
			if res.Committed[1] && res.Committed[2] {
				t.Fatalf("%s committed both concurrent writers:\n%s", mc.name, res.Describe())
			}
			if !res.Report.Serializable {
				t.Fatalf("%s produced a non-serializable history:\n%s", mc.name, res.Report.Describe())
			}
			switch mc.mode {
			case core.Strict2PL:
				// r1/r2 take shared locks; w1 blocks on the upgrade and w2
				// closes the wait cycle — the classic upgrade deadlock.
				if !res.Steps[4].Blocked || res.Steps[4].Status != OK {
					t.Fatalf("w1(x) should block on upgrade then succeed; got %+v", res.Steps[4])
				}
				if !errors.Is(res.Errs[2], core.ErrDeadlock) {
					t.Fatalf("t2 should die by deadlock, got %v", res.Errs[2])
				}
			default:
				// SI modes: no read locks, so w2 blocks behind t1's row
				// lock and fails FUW on wakeup after c1.
				if !res.Steps[5].Blocked || res.Steps[5].Status != Failed {
					t.Fatalf("w2(x) should block then fail FUW; got %+v", res.Steps[5])
				}
				if !errors.Is(res.Errs[2], core.ErrSerialization) {
					t.Fatalf("t2 should die with a serialization failure, got %v", res.Errs[2])
				}
			}
			if !res.Committed[1] || res.Final["x"] != 1 {
				t.Fatalf("t1's update must survive (x=1); got committed=%v final=%v", res.Committed, res.Final)
			}
		})
	}
}

// TestDeterminism re-runs every paper schedule under every mode many
// times and requires bit-identical execution records — the whole point
// of the subsystem.
func TestDeterminism(t *testing.T) {
	render := func(res *Result, err error) string {
		if err != nil {
			// An undispatchable schedule (prevention by blocking) must be
			// undispatchable every time, with the identical error.
			return "error: " + err.Error()
		}
		return res.Describe()
	}
	for _, s := range histories.PaperSchedules() {
		for _, mc := range allModes {
			r := Runner{Mode: mc.mode, Platform: mc.platform, Items: s.Items}
			want := render(r.Run(s.Script))
			for i := 0; i < 20; i++ {
				if got := render(r.Run(s.Script)); got != want {
					t.Fatalf("%s under %s diverged on rerun %d:\n--- first:\n%s--- rerun:\n%s",
						s.Name, mc.name, i, want, got)
				}
			}
		}
	}
}

// TestOracleAgreesOnPaperSchedules cross-checks the engine-executed
// paper histories against the brute-force oracle: the checker and the
// oracle must agree on every one, in every mode.
func TestOracleAgreesOnPaperSchedules(t *testing.T) {
	for _, s := range histories.PaperSchedules() {
		for _, mc := range allModes {
			res, err := Runner{Mode: mc.mode, Platform: mc.platform, Items: s.Items}.Run(s.Script)
			if err != nil {
				// Undispatchable under this mode (prevention by blocking);
				// nothing committed to cross-check.
				continue
			}
			agree, checkerSays, oracleSays := CheckerAgrees(res.Txns)
			if !agree {
				t.Errorf("%s under %s: checker=%v oracle=%v; history:\n%s",
					s.Name, mc.name, checkerSays, oracleSays, FormatHistory(res.Txns))
			}
			if checkerSays != res.Report.Serializable {
				t.Errorf("%s under %s: replayed checker verdict %v != original %v",
					s.Name, mc.name, checkerSays, res.Report.Serializable)
			}
		}
	}
}

// TestStuckStep covers the harness's force-abort path: the schedule
// ends while t1 is still blocked behind t2's row lock, so finalize must
// mark the step stuck and eject it.
// TestWitnessTextPinned pins what the offline analysis prints for the
// two anomalies the paper argues from, computed from the trace alone.
// The text was taken at PR 23, where the engine handed the analysis its
// commit records directly: ids, sets, commit order and the tag riding on
// the commit event all have to survive the stream for it to match.
func TestWitnessTextPinned(t *testing.T) {
	for _, tc := range []struct {
		s    histories.Schedule
		want string
	}{
		{histories.WriteSkew, `checked 2 transactions, 2 dependencies: NOT serializable (write skew)
witness cycle:
  t2(t1) --rw[H."y"]--> t3(t2)
  t3(t2) --rw[H."x"]--> t2(t1)
`},
		{histories.ReadOnlyAnomaly, `checked 3 transactions, 3 dependencies: NOT serializable (read-only anomaly)
witness cycle:
  t2(t1) --rw[H."x"]--> t3(t2)
  t3(t2) --wr[H."x"]--> t4(t3)
  t4(t3) --rw[H."y"]--> t2(t1)
`},
	} {
		r, err := Runner{Mode: core.SnapshotFUW, Items: tc.s.Items}.Run(tc.s.Script)
		if err != nil {
			t.Fatal(err)
		}
		if got := checker.Analyze(checker.Txns(r.Trace)).Describe(); got != tc.want {
			t.Fatalf("%s:\n--- got ---\n%s--- want ---\n%s", tc.s.Name, got, tc.want)
		}
	}
}

func TestStuckStep(t *testing.T) {
	res, err := Runner{Mode: core.SnapshotFUW, Platform: core.PlatformPostgres}.
		Run("b1 b2 w2(x,2) w1(x,1)")
	if err != nil {
		t.Fatal(err)
	}
	// Steps: 0:b1 1:b2 2:w2(x,2) 3:w1(x,1)
	if !res.Steps[3].Blocked || res.Steps[3].Status != Stuck {
		t.Fatalf("w1(x) should end stuck; got %+v", res.Steps[3])
	}
	if res.Committed[1] || res.Committed[2] {
		t.Fatalf("nothing should commit; got %v", res.Committed)
	}
	if res.Final["x"] != 0 {
		t.Fatalf("no write should survive; final=%v", res.Final)
	}
}

// TestScheduleErrors covers structurally invalid schedules: dispatching
// a step of a blocked transaction, or using a transaction before begin.
func TestScheduleErrors(t *testing.T) {
	r := Runner{Mode: core.SnapshotFUW, Platform: core.PlatformPostgres}
	if _, err := r.Run("b1 b2 w1(x,1) w2(x,2) w2(y,1)"); err == nil ||
		!strings.Contains(err.Error(), "blocked") {
		t.Fatalf("dispatching a blocked transaction should fail, got %v", err)
	}
	if _, err := r.Run("r1(x) c1"); err == nil ||
		!strings.Contains(err.Error(), "before begin") {
		t.Fatalf("use before begin should fail, got %v", err)
	}
	if _, err := r.Run("b1 b1"); err == nil {
		t.Fatal("double begin should fail")
	}
	if _, err := r.Run("not a script"); err == nil {
		t.Fatal("parse errors should propagate")
	}
}

// TestExplicitAbortAndValues covers the remaining DSL verbs: explicit
// aborts release locks, and read steps report the value they saw.
func TestExplicitAbortAndValues(t *testing.T) {
	res, err := Runner{Mode: core.SnapshotFUW, Platform: core.PlatformPostgres,
		Items: map[string]int64{"x": 7}}.
		Run("b1 r1(x) w1(x,9) a1 b2 r2(x) c2")
	if err != nil {
		t.Fatal(err)
	}
	// Steps: 0:b1 1:r1(x) 2:w1(x,9) 3:a1 4:b2 5:r2(x) 6:c2
	if res.Value(1) != 7 {
		t.Fatalf("r1(x) = %d, want 7", res.Value(1))
	}
	if res.Value(5) != 7 {
		t.Fatalf("r2(x) after t1's abort = %d, want 7", res.Value(5))
	}
	if res.Committed[1] || !res.Committed[2] {
		t.Fatalf("t1 aborted, t2 committed; got %v", res.Committed)
	}
	if err, ok := res.Errs[1]; !ok || err != nil {
		t.Fatalf("explicit abort should record a nil error; got %v (present=%v)", err, ok)
	}
}
