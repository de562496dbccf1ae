package workload

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"sicost/internal/checker"
	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/simres"
	"sicost/internal/smallbank"
	"sicost/internal/trace"
)

// measure shortens wall-clock measurement intervals under -short: the
// assertions in this package only need "enough commits to count", and a
// quarter of the interval still yields hundreds at zero simulated cost.
func measure(d time.Duration) time.Duration {
	if testing.Short() {
		return d / 4
	}
	return d
}

// loadedDB builds a small loaded bank without simulated costs.
func loadedDB(t *testing.T, mode core.CCMode, customers int) *engine.DB {
	t.Helper()
	db := engine.Open(engine.Config{Mode: mode, Platform: core.PlatformPostgres})
	t.Cleanup(db.Close)
	if err := smallbank.CreateSchema(db); err != nil {
		t.Fatal(err)
	}
	if _, err := smallbank.Load(db, smallbank.LoadConfig{Customers: customers, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestMixes(t *testing.T) {
	if err := UniformMix().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := BalanceHeavyMix(0.6).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Mix{0.5, 0.1}
	if err := bad.Validate(); err == nil {
		t.Fatal("bad mix accepted")
	}
	neg := Mix{-0.1, 0.3, 0.3, 0.3, 0.2}
	if err := neg.Validate(); err == nil {
		t.Fatal("negative mix accepted")
	}

	// Empirical pick distribution roughly matches the mix.
	rng := rand.New(rand.NewSource(1))
	m := BalanceHeavyMix(0.6)
	counts := map[smallbank.TxnType]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[m.pick(rng)]++
	}
	balFrac := float64(counts[smallbank.Balance]) / n
	if balFrac < 0.57 || balFrac > 0.63 {
		t.Fatalf("Balance fraction = %v, want ~0.6", balFrac)
	}
}

func TestConfigValidation(t *testing.T) {
	good := Config{MPL: 2, Customers: 100, HotspotSize: 10, HotspotProb: 0.9, Measure: time.Millisecond}
	if err := (&good).defaults(); err != nil {
		t.Fatal(err)
	}
	if good.Strategy == nil || good.Retry != (ImmediatePolicy{MaxRetries: 50}) {
		t.Fatal("defaults not applied")
	}
	open := Config{Rate: 100, Customers: 100, HotspotSize: 10, Measure: time.Millisecond}
	if err := (&open).defaults(); err != nil || open.MaxInFlight <= 0 {
		t.Fatalf("arrivals config: err %v, MaxInFlight %d", err, open.MaxInFlight)
	}
	bad := []Config{
		{MPL: 0, Customers: 100, HotspotSize: 10, Measure: time.Millisecond},            // neither MPL nor Rate
		{MPL: 2, Rate: 100, Customers: 100, HotspotSize: 10, Measure: time.Millisecond}, // both
		{Rate: 100, Customers: 1, HotspotSize: 1, Measure: time.Millisecond},
		{MPL: 1, Customers: 1, HotspotSize: 1, Measure: time.Millisecond},
		{MPL: 1, Customers: 100, HotspotSize: 1000, Measure: time.Millisecond},
		{MPL: 1, Customers: 100, HotspotSize: 10, HotspotProb: 1.5, Measure: time.Millisecond},
		{MPL: 1, Customers: 100, HotspotSize: 10, Measure: 0},
	}
	for i, c := range bad {
		if err := (&c).defaults(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestHotspotDistribution(t *testing.T) {
	cfg := Config{Customers: 1000, HotspotSize: 100, HotspotProb: 0.9}
	rng := rand.New(rand.NewSource(7))
	inHot := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if pickCustomer(cfg, rng) < cfg.HotspotSize {
			inHot++
		}
	}
	frac := float64(inHot) / n
	if frac < 0.87 || frac > 0.93 {
		t.Fatalf("hotspot fraction = %v, want ~0.9", frac)
	}
	// Degenerate case: hotspot == whole table.
	cfg2 := Config{Customers: 50, HotspotSize: 50, HotspotProb: 0.5}
	for i := 0; i < 100; i++ {
		if c := pickCustomer(cfg2, rng); c < 0 || c >= 50 {
			t.Fatalf("customer %d out of range", c)
		}
	}
}

func TestRunProducesThroughput(t *testing.T) {
	db := loadedDB(t, core.SnapshotFUW, 200)
	res, err := Run(db, Config{
		Strategy: smallbank.StrategySI,
		MPL:      4, Customers: 200, HotspotSize: 50, HotspotProb: 0.9,
		Ramp: 20 * time.Millisecond, Measure: measure(150 * time.Millisecond), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 || res.TPS <= 0 {
		t.Fatalf("no work done: %+v", res)
	}
	var perTypeSum int64
	for i := range res.PerType {
		perTypeSum += res.PerType[i].Commits
	}
	if perTypeSum != res.Commits {
		t.Fatalf("per-type commits %d != total %d", perTypeSum, res.Commits)
	}
	if res.Latency.Mean() <= 0 {
		t.Fatal("no latency recorded")
	}
	// All five types should have run at this volume.
	for i := range res.PerType {
		if res.PerType[i].Commits == 0 {
			t.Fatalf("type %d never committed", i)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	db := loadedDB(t, core.SnapshotFUW, 50)
	for name, cfg := range map[string]Config{
		"neither MPL nor Rate": {Customers: 50, HotspotSize: 10, Measure: time.Millisecond},
		"both MPL and Rate":    {MPL: 2, Rate: 100, Customers: 50, HotspotSize: 10, Measure: time.Millisecond},
		"single customer":      {Rate: 100, Customers: 1, HotspotSize: 5, Measure: time.Millisecond},
	} {
		if _, err := Run(db, cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestAbortAccountingUnderContention(t *testing.T) {
	// Tiny hotspot + updates-only mix: serialization aborts must appear
	// and be attributed.
	db := loadedDB(t, core.SnapshotFUW, 100)
	var mix Mix
	mix[smallbank.TransactSaving] = 0.5
	mix[smallbank.WriteCheck] = 0.5
	res, err := Run(db, Config{
		Strategy: smallbank.StrategyMaterializeWT,
		MPL:      8, Customers: 100, HotspotSize: 2, HotspotProb: 1.0,
		Mix:  mix,
		Ramp: 10 * time.Millisecond, Measure: measure(200 * time.Millisecond), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborts == 0 {
		t.Fatal("expected serialization aborts on a 2-customer hotspot with materialized conflicts")
	}
	ser := res.PerType[smallbank.TransactSaving].Aborts[core.AbortSerialization] +
		res.PerType[smallbank.WriteCheck].Aborts[core.AbortSerialization]
	dead := res.PerType[smallbank.TransactSaving].Aborts[core.AbortDeadlock] +
		res.PerType[smallbank.WriteCheck].Aborts[core.AbortDeadlock]
	if ser+dead == 0 {
		t.Fatalf("aborts not classified as serialization/deadlock: %+v", res.PerType)
	}
	rate := res.PerType[smallbank.WriteCheck].SerializationAbortRate()
	if rate < 0 || rate > 1 {
		t.Fatalf("abort rate = %v", rate)
	}
}

// TestEngineMetricsDelta pins the observability contract of Result.Engine:
// it is a delta over the driver's own run (work done before Run is
// excluded), the commit-latency histogram is populated, and the abort
// taxonomy attributes essentially every abort — the paper-facing
// acceptance bar is ≥95% on a hotspot mix.
func TestEngineMetricsDelta(t *testing.T) {
	db := loadedDB(t, core.SnapshotFUW, 100)

	// Commit one transaction before the run; the delta must not see it.
	tx := db.Begin()
	if err := smallbank.RunIn(tx, smallbank.StrategySI, smallbank.DepositChecking, smallbank.Params{N1: smallbank.CustomerName(1), V: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	pre := db.TxnMetrics()

	var mix Mix
	mix[smallbank.TransactSaving] = 0.5
	mix[smallbank.WriteCheck] = 0.5
	res, err := Run(db, Config{
		Strategy: smallbank.StrategySI,
		MPL:      8, Customers: 100, HotspotSize: 2, HotspotProb: 1.0,
		Mix:  mix,
		Ramp: 10 * time.Millisecond, Measure: measure(200 * time.Millisecond), Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine.Commits <= 0 {
		t.Fatal("engine delta saw no commits")
	}
	if int64(res.Engine.Commits) < res.Commits {
		// Engine counts the ramp too, so it can only be >= the measured window.
		t.Fatalf("engine commits %d < measured commits %d", res.Engine.Commits, res.Commits)
	}
	if got, want := res.Engine.CommitLatency.Count, res.Engine.Commits; got == 0 || got > want {
		t.Fatalf("commit-latency delta holds %d samples for %d commits in the run", got, want)
	}
	if total := db.TxnMetrics(); total.Commits != pre.Commits+res.Engine.Commits {
		t.Fatalf("engine commits %d, want %d before + %d in the run", total.Commits, pre.Commits, res.Engine.Commits)
	}
	if res.Engine.Aborts.Total() == 0 {
		t.Fatal("2-customer hotspot produced no engine-level aborts")
	}
	if attr := res.AbortAttribution(); attr < 0.95 {
		t.Fatalf("abort attribution %.3f below the 95%% bar (vector %v)", attr, res.Engine.Aborts)
	}
}

// recordHistory installs a trace recorder on db and pumps it on a
// subscription that keeps the whole stream, so a run may outlast the
// rings. The returned function ends the pump and analyzes the committed
// history; a recorder that dropped events has no history to judge.
func recordHistory(t testing.TB, db *engine.DB) (analyze func() *checker.Report) {
	t.Helper()
	rec := trace.New(trace.Options{ShardCap: 1 << 12})
	db.SetTracer(rec)
	sub := trace.Subscribe(rec, func([]trace.Event) {}, trace.SubOptions{Retain: true})
	return func() *checker.Report {
		sub.Close()
		if n := rec.Dropped(); n != 0 {
			t.Fatalf("trace dropped %d events", n)
		}
		return checker.Analyze(checker.Txns(sub.Events()))
	}
}

// TestDriverSerializableUnderStrategy runs a full concurrent workload
// with the checker attached: a repair strategy must yield an acyclic
// MVSG even on a pathological hotspot.
func TestDriverSerializableUnderStrategy(t *testing.T) {
	for _, s := range []*smallbank.Strategy{
		smallbank.StrategyMaterializeWT,
		smallbank.StrategyPromoteWTUpd,
		smallbank.StrategyPromoteBWUpd,
	} {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			db := loadedDB(t, core.SnapshotFUW, 60)
			// A little simulated CPU per statement, as in the anomaly
			// hunt below: transactions overlap instead of running to
			// completion inside one scheduling quantum, and the event
			// rate is the model's, not the host's — on free hardware
			// eight clients emit a million events a second, which starves
			// the pump and makes the retained history tens of megabytes.
			db.SetResources(simres.Config{VirtualCPUs: 2, StmtCPU: 50 * time.Microsecond})
			analyze := recordHistory(t, db)
			_, err := Run(db, Config{
				Strategy: s,
				MPL:      8, Customers: 60, HotspotSize: 3, HotspotProb: 1.0,
				Measure: measure(250 * time.Millisecond), Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep := analyze()
			if rep.Txns == 0 {
				t.Fatal("nothing recorded")
			}
			if !rep.Serializable {
				t.Fatalf("%s produced a non-serializable execution:\n%s", s.Name, rep.Describe())
			}
		})
	}
}

// TestDriverFindsAnomalyUnderPlainSI stochastically reproduces the
// paper's premise: on a small hotspot, plain SI eventually commits a
// non-serializable execution. The seed and duration are chosen so this
// fires reliably; if the engine's SI were accidentally too strong this
// test would catch it.
func TestDriverFindsAnomalyUnderPlainSI(t *testing.T) {
	if testing.Short() {
		// The deterministic replays in internal/detsim
		// (TestWriteSkewAcrossModes and friends) pin the same property
		// without scheduling luck; skip the stochastic hunt in -short.
		t.Skip("stochastic anomaly search; deterministic version lives in internal/detsim")
	}
	// The anomaly is a scheduling race, so this is probabilistic; each
	// attempt hits with probability about 0.3 on a two-core host (50
	// runs: found on attempt 1 to 10, ten misses in a row twice in 66),
	// making twenty misses in a row vanishingly unlikely unless SI is
	// accidentally too strong. A free-hardware engine is too fast for its own good
	// here: on one OS CPU a whole transaction can run inside a single
	// scheduling quantum and snapshots stop overlapping, so charge a
	// little simulated per-statement CPU to stretch transaction
	// lifetimes and force genuine concurrency on the hotspot.
	for attempt := 0; attempt < 20; attempt++ {
		db := engine.Open(engine.Config{
			Mode: core.SnapshotFUW, Platform: core.PlatformPostgres,
			Res: simres.Config{VirtualCPUs: 2, StmtCPU: 50 * time.Microsecond},
		})
		t.Cleanup(db.Close)
		if err := smallbank.CreateSchema(db); err != nil {
			t.Fatal(err)
		}
		if _, err := smallbank.Load(db, smallbank.LoadConfig{Customers: 40, Seed: 42}); err != nil {
			t.Fatal(err)
		}
		analyze := recordHistory(t, db)
		if _, err := Run(db, Config{
			Strategy: smallbank.StrategySI,
			MPL:      10, Customers: 40, HotspotSize: 2, HotspotProb: 1.0,
			Measure: 500 * time.Millisecond, Seed: int64(attempt * 31),
		}); err != nil {
			t.Fatal(err)
		}
		if rep := analyze(); !rep.Serializable {
			return // anomaly observed, as the theory predicts
		}
	}
	t.Fatal("plain SI never produced a non-serializable execution on a pathological hotspot")
}

// TestClosedLoopRequestStreamGolden pins the closed loop's request
// stream: for a fixed seed, the first 200 (type, params) draws of
// clients 0 and 1 equal testdata/closed_stream.golden (recorded at
// commit 8bbb4aa) — the sequence every recorded figure and
// TestMPL1LogWaitClosedForm's tolerances were measured on.
func TestClosedLoopRequestStreamGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/closed_stream.golden")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MPL: 2, Customers: 18000, HotspotSize: 1000, HotspotProb: 0.9, Mix: UniformMix(), Seed: 42}
	var got strings.Builder
	for id := int64(0); id < 2; id++ {
		rng := streamRNG(cfg.Seed, id)
		for i := 0; i < 200; i++ {
			typ, p := draw(&cfg, rng)
			fmt.Fprintf(&got, "%d %s %s %s %d\n", id, typ, p.N1, p.N2, p.V)
		}
	}
	if got.String() != string(want) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range g {
			if i >= len(w) || g[i] != w[i] {
				t.Fatalf("request stream diverges at draw %d: got %q, golden %q", i, g[i], w[min(i, len(w)-1)])
			}
		}
		t.Fatalf("request stream is a strict prefix of the golden: %d lines, want %d", len(g), len(w))
	}
}
