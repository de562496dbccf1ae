package detsim

import (
	"testing"

	"sicost/internal/core"
	"sicost/internal/histories"
)

// FuzzCheckerHistories drives arbitrary interleaving scripts through the
// deterministic scheduler under every concurrency-control mode and
// cross-validates the checker's verdict on the resulting committed
// history against the brute-force oracle. The corpus is seeded with the
// paper's anomaly interleavings; the fuzzer mutates them into the
// blocked/woken/deadlocked corners of the lock paths.
//
// Run with: go test -fuzz FuzzCheckerHistories ./internal/detsim
func FuzzCheckerHistories(f *testing.F) {
	for _, s := range histories.PaperSchedules() {
		f.Add(s.Script)
	}
	f.Add("b1 b2 r1(x) w2(x,1) c2 w1(y,5) c1 b3 r3(y) c3")
	f.Add("b1 u1(x) b2 u2(y) w1(y,1) w2(x,1) c1 c2")
	f.Add("b1 w1(q,1) c1") // unknown item: reads/writes fail cleanly

	f.Fuzz(func(t *testing.T, script string) {
		if len(script) > 256 {
			return
		}
		steps, err := histories.Parse(script)
		if err != nil {
			return
		}
		// Bound the history so the factorial oracle stays cheap.
		if len(steps) > 40 {
			return
		}
		txns := map[int]bool{}
		for _, s := range steps {
			txns[s.Txn] = true
		}
		if len(txns) > 6 {
			return
		}
		for _, mc := range []struct {
			mode     core.CCMode
			platform core.Platform
		}{
			{core.SnapshotFUW, core.PlatformPostgres},
			{core.SnapshotFUW, core.PlatformCommercial},
			{core.Strict2PL, core.PlatformPostgres},
			{core.SerializableSI, core.PlatformPostgres},
		} {
			res, err := Runner{Mode: mc.mode, Platform: mc.platform}.Run(script)
			if err != nil {
				// Structurally invalid under this mode (e.g. a step of a
				// blocked transaction): not a history, nothing to check.
				continue
			}
			agree, checkerSays, oracleSays := CheckerAgrees(res.Txns)
			if !agree {
				min := MinimizeDivergence(res.Txns)
				t.Fatalf("mode=%v platform=%v script=%q: checker=%v oracle=%v\nminimized:\n%s",
					mc.mode, mc.platform, script, checkerSays, oracleSays, FormatHistory(min))
			}
			if checkerSays != res.Report.Serializable {
				t.Fatalf("mode=%v platform=%v script=%q: replayed verdict %v != recorded %v",
					mc.mode, mc.platform, script, checkerSays, res.Report.Serializable)
			}
		}
	})
}
