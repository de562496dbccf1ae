package experiments

import (
	"math"
	"testing"
	"time"

	"sicost/internal/engine"
	"sicost/internal/smallbank"
	"sicost/internal/wal"
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
	cfg := closedFormConfig()
	tps := func(s *smallbank.Strategy, engCfg engine.Config) float64 {
		got, _ := medianTPS(t, cfg, s, engCfg, 1)
		return got
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

// closedFormConfig is the database and the one-second window the
// closed-form tests measure on.
func closedFormConfig() Config {
	return Config{
		Customers: 2000, Ramp: 100 * time.Millisecond, Measure: time.Second,
		Reps: 1, MPLs: []int{1}, Seed: 7,
	}.Defaults()
}

// medianTPS runs mpl closed-loop clients of strategy s for one window
// and returns their throughput and the log's counters. With no think
// time throughput is mpl over the mean response time. Taking each
// program's response time at its median keeps what the device and the
// CPU model charge and drops the moments the host gave the core to
// somebody else.
func medianTPS(t *testing.T, cfg Config, s *smallbank.Strategy, engCfg engine.Config, mpl int) (float64, wal.Stats) {
	t.Helper()
	db, _, err := smallbank.Open(engCfg, smallbank.LoadConfig{Customers: cfg.Customers, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	res, err := workload.Run(db, workload.Config{
		Strategy: s, MPL: mpl, Customers: cfg.Customers,
		HotspotSize: hotspotFor(cfg, defaultHotspot), HotspotProb: defaultHotProb,
		Mix: workload.UniformMix(), Ramp: cfg.Ramp, Measure: cfg.Measure, Seed: cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var perTxn float64
	for i := range res.PerType {
		ts := &res.PerType[i]
		perTxn += float64(ts.Commits) / float64(res.Commits) * ts.Latency.Quantile(0.5).Seconds()
	}
	got := float64(mpl) / perTxn
	t.Logf("%s at MPL %d: raw %.1f tps, median-based %.1f", s.Name, mpl, res.TPS, got)
	return got, db.WAL().Stats()
}

// TestMPL2SharesTheSync pins what the log device's commit delay buys,
// where TestMPL1LogWaitClosedForm pins what the log costs: under
// MaterializeALL every commit waits for the log, and two clients wait
// for the same sync. The one that acknowledged them both is followed by
// their CPU work — one simulated CPU, so one after the other — and the
// next starts when the second is back: 2 / (sync + 2·CPU), with nearly
// two commits per sync. Taking turns instead (one commit per sync, each
// waiting out the other's: 2 / (2·sync) = 400 at any CPU cost below a
// sync) is what a flush loop that stops holding falls back to, and what
// both bounds are there to catch.
//
// The tolerance comes from ten runs of this test on a two-core host —
// eight idle, two under -race: throughput read 3.4 % to 8.0 % under the
// closed form (each sync ends some 0.15 ms late, as at MPL 1, and a held
// one that misses its second committer costs a whole one) and the log
// 1.86 to 1.97 commits per sync; taking turns is 21 % under and 1.0.
func TestMPL2SharesTheSync(t *testing.T) {
	if testing.Short() {
		t.Skip("two one-second measurement windows")
	}
	const (
		closedFormTol = 0.12 // TPS vs closed form, relative
		minPerSync    = 1.5  // commits per sync
	)
	cfg := closedFormConfig()
	pg := PostgresDB(cfg.Scale)
	sync := pg.WAL.FsyncLatency.Seconds()
	noLog := pg
	noLog.WAL.FsyncLatency = 0
	one, _ := medianTPS(t, cfg, smallbank.StrategyMaterializeALL, noLog, 1)
	cpu := 1 / one

	stalled := stallProbe()
	got, log := medianTPS(t, cfg, smallbank.StrategyMaterializeALL, pg, 2)
	late := stalled()
	want := 2 / (sync + 2*cpu)
	t.Logf("CPU %.0f µs/txn, sync %.0f µs: %.1f tps, closed form %.1f (%+.1f %%); taking turns would read %.0f; %.2f commits/sync, %d of %d syncs held, %d until both were back; %.1f %% of the stall probe's sleeps were late",
		cpu*1e6, sync*1e6, got, want, 100*(got/want-1), 1/sync, log.CommitsPerSync(), log.Holds, log.Syncs, log.HoldHits, 100*late)
	// Two clients share a sync only while both are back within one sync
	// period of their acknowledgement. A host that keeps runnable
	// goroutines waiting for milliseconds (every package's tests at once
	// under -race) makes them late, the hold backs off as it should, and
	// what is left to measure is the host: the probe read 0.3–0.5 % on an
	// idle host, 1.3–1.4 % under -race alone (1.94–1.98 commits per sync
	// on both) and 2.2–5.8 % beside three other packages' -race tests
	// (1.15–1.32 per sync, 399–403 tps).
	fail := t.Errorf
	if late > 0.01 {
		fail = t.Skipf
	}
	if math.Abs(got/want-1) > closedFormTol || log.CommitsPerSync() < minPerSync {
		fail("MaterializeALL at MPL 2 ran %.1f tps, %.2f commits per sync; want 2/(sync + 2·CPU) = %.1f within %.0f %% and at least %.1f per sync (%.1f %% of the probe's 1 ms sleeps took over 3 ms)",
			got, log.CommitsPerSync(), want, 100*closedFormTol, minPerSync, 100*late)
	}
}

// stallProbe sleeps 1 ms at a time beside a measurement until the
// returned function is called, which reports the share of those sleeps
// that took over 3 ms: how often the host kept a runnable goroutine
// waiting for longer than a transaction's CPU work takes.
func stallProbe() (stop func() (late float64)) {
	done, result := make(chan struct{}), make(chan float64)
	go func() {
		var n, slow float64
		for {
			select {
			case <-done:
				result <- slow / max(n, 1)
				return
			default:
			}
			t0 := time.Now()
			time.Sleep(time.Millisecond)
			if n++; time.Since(t0) > 3*time.Millisecond {
				slow++
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-result
	}
}
