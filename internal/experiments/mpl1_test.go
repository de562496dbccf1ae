package experiments

import (
	"math"
	"testing"
	"time"

	"sicost/internal/engine"
	"sicost/internal/smallbank"
	"sicost/internal/workload"
)

// TestMPL1LogWaitClosedForm pins the paper's MPL-1 conclusion (§IV-D):
// with one client nothing overlaps, so a transaction costs its CPU time
// plus, for an updater, one log sync. Under SI the read-only Balance —
// one fifth of the uniform mix — skips the log, so SI runs at
// 1 / (CPU + 0.8·FsyncLatency); MaterializeALL makes every program an
// updater, 5/5 instead of 4/5 commits wait, and it lands near 0.8 of SI
// (a little under on this profile: each program also pays for its extra
// Conflict-table update). CPU is measured, not assumed: the same profile
// with the log switched off.
//
// Both tolerances come from ten runs of this test on a two-core host —
// three idle, four beside other packages' tests, one under -race, two
// inside `go test ./...`: SI read 4.9 % to 7.9 % under the closed form
// (each sync ends some 0.15 ms late: timer slack and the wake-up) and the
// ratio 0.763 to 0.782. While the simulated sync still slept 3.2 ms for
// its 2.5 ms, SI read 21.8 % under.
func TestMPL1LogWaitClosedForm(t *testing.T) {
	if testing.Short() {
		t.Skip("three one-second measurement windows")
	}
	const (
		closedFormTol = 0.12 // SI TPS vs closed form, relative
		ratioTol      = 0.06 // MaterializeALL ÷ SI vs 0.8, absolute
	)
	cfg := Config{
		Customers: 2000, Ramp: 100 * time.Millisecond, Measure: time.Second,
		Reps: 1, MPLs: []int{1}, Seed: 7,
	}.Defaults()
	tps := func(s *smallbank.Strategy, engCfg engine.Config) float64 {
		t.Helper()
		db, err := newLoadedDB(engCfg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		res, err := workload.Run(db, workload.Config{
			Strategy: s, MPL: 1, Customers: cfg.Customers,
			HotspotSize: hotspotFor(cfg, defaultHotspot), HotspotProb: defaultHotProb,
			Mix: workload.UniformMix(), Ramp: cfg.Ramp, Measure: cfg.Measure, Seed: cfg.Seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		// One client, no think time: throughput is the reciprocal of the
		// mean response time. Taking each program's response time at its
		// median keeps what the device and the CPU model charge and drops
		// the moments the host gave the core to somebody else.
		var perTxn float64
		for i := range res.PerType {
			ts := &res.PerType[i]
			perTxn += float64(ts.Commits) / float64(res.Commits) * ts.Latency.Quantile(0.5).Seconds()
		}
		t.Logf("%s: raw %.1f tps, median-based %.1f", s.Name, res.TPS, 1/perTxn)
		return 1 / perTxn
	}

	pg := PostgresDB(cfg.Scale)
	sync := pg.WAL.FsyncLatency.Seconds()
	noLog := pg
	noLog.WAL.FsyncLatency = 0
	cpu := 1 / tps(smallbank.StrategySI, noLog)

	si := tps(smallbank.StrategySI, pg)
	want := 1 / (cpu + 0.8*sync)
	t.Logf("CPU %.0f µs/txn, sync %.0f µs: SI %.1f tps, closed form %.1f (%+.1f %%)",
		cpu*1e6, sync*1e6, si, want, 100*(si/want-1))
	if math.Abs(si/want-1) > closedFormTol {
		t.Errorf("SI at MPL 1 ran %.1f tps; 1/(CPU + 0.8·sync) = %.1f, off by more than %.0f %%",
			si, want, 100*closedFormTol)
	}

	all := tps(smallbank.StrategyMaterializeALL, pg)
	t.Logf("MaterializeALL %.1f tps, %.3f of SI", all, all/si)
	if math.Abs(all/si-0.8) > ratioTol {
		t.Errorf("MaterializeALL ÷ SI at MPL 1 = %.3f, want 0.8 ± %.2f", all/si, ratioTol)
	}
}
