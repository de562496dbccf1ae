// Benchmarks: one per table/figure of the paper, each running a scaled-
// down version of the corresponding experiment and reporting throughput
// (tps) as the primary metric. The full-fidelity sweeps live behind
// cmd/sibench; these benches keep every figure's machinery exercised and
// comparable run-to-run.
package sicost_test

import (
	"testing"
	"time"

	"sicost/internal/checker"
	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/experiments"
	"sicost/internal/sdg"
	"sicost/internal/simres"
	"sicost/internal/smallbank"
	"sicost/internal/trace"
	"sicost/internal/workload"
)

// benchScale shrinks the simulated hardware 5× so each iteration is
// quick; shapes are preserved.
const benchScale = 0.2

// benchCustomers keeps the loader fast while leaving the standard
// hotspot-to-table ratio intact.
const benchCustomers = 2000

// benchWorkload runs one short measured workload and reports TPS.
func benchWorkload(b *testing.B, engCfg engine.Config, s *smallbank.Strategy,
	mpl, hotspot int, mix workload.Mix) {
	b.Helper()
	var totalTPS float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, _, err := smallbank.Open(engCfg, smallbank.LoadConfig{Customers: benchCustomers, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()

		res, err := workload.Run(db, workload.Config{
			Strategy: s, MPL: mpl, Customers: benchCustomers,
			HotspotSize: hotspot, HotspotProb: 0.9, Mix: mix,
			Ramp: 20 * time.Millisecond, Measure: 150 * time.Millisecond,
			Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		totalTPS += res.TPS

		b.StopTimer()
		db.Close()
		b.StartTimer()
	}
	b.ReportMetric(totalTPS/float64(b.N), "tps")
}

// BenchmarkTable1Static regenerates Table I: strategy metadata plus the
// SDG derivation and safety proof of every strategy.
func BenchmarkTable1Static(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range smallbank.Strategies() {
			_ = s.ExtraUpdates()
			progs, err := s.SDGPrograms()
			if err != nil {
				b.Fatal(err)
			}
			g, err := sdg.New(progs...)
			if err != nil {
				b.Fatal(err)
			}
			if s.GuaranteesSerializable() && !g.IsSafe() {
				b.Fatalf("%s not safe", s.Name)
			}
		}
	}
}

// BenchmarkFig1SDG builds and analyses the SmallBank SDG (Figure 1):
// edges, vulnerability, dangerous structures and minimal fix sets.
func BenchmarkFig1SDG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := sdg.New(smallbank.BasePrograms()...)
		if err != nil {
			b.Fatal(err)
		}
		if len(g.DangerousStructures()) != 1 {
			b.Fatal("analysis changed")
		}
		if len(g.MinimalFixSets()) != 2 {
			b.Fatal("fix sets changed")
		}
	}
}

// BenchmarkFig4 measures the ALL strategies on the PostgreSQL profile at
// the plateau MPL (Figure 4).
func BenchmarkFig4(b *testing.B) {
	for _, s := range []*smallbank.Strategy{
		smallbank.StrategySI, smallbank.StrategyMaterializeALL, smallbank.StrategyPromoteALL,
	} {
		b.Run(s.Name, func(b *testing.B) {
			benchWorkload(b, experiments.PostgresDB(benchScale), s, 20, 200, workload.UniformMix())
		})
	}
}

// BenchmarkFig5 measures the targeted WT/BW strategies on PostgreSQL
// (Figure 5) at low and plateau MPL — the two regimes the paper
// contrasts.
func BenchmarkFig5(b *testing.B) {
	for _, s := range []*smallbank.Strategy{
		smallbank.StrategySI,
		smallbank.StrategyMaterializeWT, smallbank.StrategyPromoteWTUpd,
		smallbank.StrategyMaterializeBW, smallbank.StrategyPromoteBWUpd,
	} {
		b.Run(s.Name+"/MPL1", func(b *testing.B) {
			benchWorkload(b, experiments.PostgresDB(benchScale), s, 1, 200, workload.UniformMix())
		})
		b.Run(s.Name+"/MPL20", func(b *testing.B) {
			benchWorkload(b, experiments.PostgresDB(benchScale), s, 20, 200, workload.UniformMix())
		})
	}
}

// BenchmarkFig6 measures the abort-rate experiment's configuration
// (MPL=20) and reports the serialization-abort share alongside TPS.
func BenchmarkFig6(b *testing.B) {
	for _, s := range []*smallbank.Strategy{
		smallbank.StrategySI, smallbank.StrategyPromoteBWUpd,
	} {
		b.Run(s.Name, func(b *testing.B) {
			benchWorkload(b, experiments.PostgresDB(benchScale), s, 20, 200, workload.UniformMix())
		})
	}
}

// BenchmarkFig7 measures the high-contention configuration: hotspot 10,
// 60% Balance (Figure 7).
func BenchmarkFig7(b *testing.B) {
	for _, s := range []*smallbank.Strategy{
		smallbank.StrategySI,
		smallbank.StrategyPromoteWTUpd,
		smallbank.StrategyMaterializeBW,
		smallbank.StrategyMaterializeALL,
	} {
		b.Run(s.Name, func(b *testing.B) {
			benchWorkload(b, experiments.PostgresDB(benchScale), s, 20, 10, workload.BalanceHeavyMix(0.6))
		})
	}
}

// BenchmarkFig8 measures Option WT on the commercial platform at its
// peak MPL (Figure 8).
func BenchmarkFig8(b *testing.B) {
	for _, s := range []*smallbank.Strategy{
		smallbank.StrategySI, smallbank.StrategyMaterializeWT,
		smallbank.StrategyPromoteWTSfu, smallbank.StrategyPromoteWTUpd,
	} {
		b.Run(s.Name, func(b *testing.B) {
			benchWorkload(b, experiments.CommercialDB(benchScale), s, 20, 200, workload.UniformMix())
		})
	}
}

// BenchmarkFig9 measures Option BW on the commercial platform (Figure 9).
func BenchmarkFig9(b *testing.B) {
	for _, s := range []*smallbank.Strategy{
		smallbank.StrategySI, smallbank.StrategyMaterializeBW,
		smallbank.StrategyPromoteBWSfu, smallbank.StrategyPromoteBWUpd,
	} {
		b.Run(s.Name, func(b *testing.B) {
			benchWorkload(b, experiments.CommercialDB(benchScale), s, 20, 200, workload.UniformMix())
		})
	}
}

// BenchmarkEngineReadTxn and BenchmarkEngineUpdateTxn are engine
// micro-benchmarks (no simulated hardware): raw transaction machinery
// cost.
func BenchmarkEngineReadTxn(b *testing.B) {
	db, _, err := smallbank.Open(engine.Config{Mode: core.SnapshotFUW}, smallbank.LoadConfig{Customers: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	name := smallbank.CustomerName(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := smallbank.Run(db, smallbank.StrategySI, smallbank.Balance,
			smallbank.Params{N1: name}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineUpdateTxn(b *testing.B) {
	db, _, err := smallbank.Open(engine.Config{Mode: core.SnapshotFUW}, smallbank.LoadConfig{Customers: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	name := smallbank.CustomerName(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := smallbank.Run(db, smallbank.StrategySI, smallbank.DepositChecking,
			smallbank.Params{N1: name, V: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckerAnalyze measures MVSG construction and cycle search
// over a recorded history.
func BenchmarkCheckerAnalyze(b *testing.B) {
	db, _, err := smallbank.Open(engine.Config{Mode: core.SnapshotFUW}, smallbank.LoadConfig{Customers: 200, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	// Simulated CPU keeps the event rate the model's and not the host's,
	// so the pump keeps up with the rings.
	db.SetResources(simres.Config{VirtualCPUs: 2, StmtCPU: 50 * time.Microsecond})
	rec := trace.New(trace.Options{ShardCap: 1 << 12})
	db.SetTracer(rec)
	sub := trace.Subscribe(rec, func([]trace.Event) {}, trace.SubOptions{Retain: true})
	if _, err := workload.Run(db, workload.Config{
		Strategy: smallbank.StrategySI, MPL: 8, Customers: 200,
		HotspotSize: 20, HotspotProb: 0.9,
		Measure: 200 * time.Millisecond, Seed: 3,
	}); err != nil {
		b.Fatal(err)
	}
	sub.Close()
	if n := rec.Dropped(); n != 0 {
		b.Fatalf("trace dropped %d events", n)
	}
	txns := checker.Txns(sub.Events())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := checker.Analyze(txns)
		if rep.Txns == 0 {
			b.Fatal("empty history")
		}
	}
}
