package experiments

import (
	"fmt"
	"sort"
	"strings"

	"sicost/internal/advisor"
	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/smallbank"
	"sicost/internal/workload"
)

// runAblationFixedRow quantifies §II-B's remark that materialization
// should introduce contention "only if it is needed": the single
// conflict row variant versus the per-customer row, under high
// contention where the difference is starkest.
func runAblationFixedRow(cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	return throughputFigure("ablation-fixedrow",
		"Ablation: per-customer vs single-row materialization of the WT edge (PostgreSQL, hotspot 10, 60% Balance)",
		cfg, PostgresDB(cfg.Scale), workload.BalanceHeavyMix(0.6), 10, defaultHotProb,
		[]*smallbank.Strategy{
			smallbank.StrategySI,
			smallbank.StrategyMaterializeWT,
			smallbank.StrategyMaterializeWTFixed,
		},
		"Expected: the fixed-row variant makes every WC/TS pair conflict regardless of",
		"customer, collapsing throughput well below per-customer materialization.",
	)
}

// runAblationGroupCommit isolates the provenance of the rising
// throughput curve: with group commit disabled (one fsync per commit),
// updater throughput is capped near 1/FsyncLatency and the curve
// flattens immediately.
func runAblationGroupCommit(cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	res := &Result{
		ID: "ablation-groupcommit", Title: "Ablation: group commit on/off (PostgreSQL, plain SI)",
		XLabel: "MPL", YLabel: "TPS",
		Notes: []string{
			"Expected: without group commit the log device serializes commits (~1/fsync per",
			"updater), so throughput saturates far below the group-commit configuration.",
		},
	}
	for _, variant := range []struct {
		name     string
		maxBatch int
	}{
		{"group-commit", 0},
		// One commit record per device sync.
		{"no-group-commit", 1},
	} {
		engCfg := PostgresDB(cfg.Scale)
		engCfg.WAL.MaxBatch = variant.maxBatch
		cfg.logf("ablation-groupcommit: %s", variant.name)
		s, err := runSweep(variant.name, sweepSpec{
			strategy: smallbank.StrategySI, engCfg: engCfg,
			mix: workload.UniformMix(), hotspot: hotspotFor(cfg, defaultHotspot), hotProb: defaultHotProb,
		}, cfg)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// runAblationEngine compares the application-level repairs against
// engine-level serializability: Cahill-style SSI (what PostgreSQL later
// shipped) and strict 2PL, all on the PostgreSQL hardware profile.
func runAblationEngine(cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	res := &Result{
		ID: "ablation-engine", Title: "Extension: engine-level serializability (SSI, 2PL) vs app-level strategies (PostgreSQL profile)",
		XLabel: "MPL", YLabel: "TPS",
		Notes: []string{
			"SI and PromoteWT-upd bound the app-level cost; SSI pays runtime conflict",
			"tracking and false-positive aborts; 2PL blocks readers behind writers.",
		},
	}
	variants := []struct {
		name     string
		mode     core.CCMode
		strategy *smallbank.Strategy
	}{
		{"SI (unsafe)", core.SnapshotFUW, smallbank.StrategySI},
		{"PromoteWT-upd", core.SnapshotFUW, smallbank.StrategyPromoteWTUpd},
		{"SSI engine", core.SerializableSI, smallbank.StrategySI},
		{"2PL engine", core.Strict2PL, smallbank.StrategySI},
	}
	for _, v := range variants {
		cfg.logf("ablation-engine: %s", v.name)
		s, err := runSweep(v.name, sweepSpec{
			strategy: v.strategy, engCfg: ModeDB(v.mode, cfg.Scale),
			mix: workload.UniformMix(), hotspot: hotspotFor(cfg, defaultHotspot), hotProb: defaultHotProb,
		}, cfg)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// runAblationAdvisor validates the paper's future-work tool: the
// analytic performance model of internal/advisor predicts the
// throughput of every repair option, and we compare its ranking against
// measured throughput of the corresponding strategies at MPL 20 on the
// PostgreSQL profile.
func runAblationAdvisor(cfg Config) (*Result, error) {
	cfg = cfg.Defaults()

	// Predictions.
	weights := map[string]float64{"Bal": 0.2, "DC": 0.2, "TS": 0.2, "Amg": 0.2, "WC": 0.2}
	plat := advisor.Platform{
		Name:  core.PlatformPostgres,
		Res:   PostgresResources(cfg.Scale),
		Fsync: LogDevice(cfg.Scale).FsyncLatency,
		Cost:  engine.DefaultCostModel(core.PlatformPostgres).Scaled(cfg.Scale),
	}
	hot := hotspotFor(cfg, defaultHotspot)
	preds, err := advisor.Advise(smallbank.BasePrograms(), advisor.Workload{
		Weights: weights, HotspotSize: hot, HotspotProb: defaultHotProb, MPL: 20,
	}, plat)
	if err != nil {
		return nil, err
	}

	// Measurements for the strategies the options map onto.
	optionToStrategy := map[string]*smallbank.Strategy{
		"WC->TS:materialize":  smallbank.StrategyMaterializeWT,
		"WC->TS:promote-upd":  smallbank.StrategyPromoteWTUpd,
		"Bal->WC:materialize": smallbank.StrategyMaterializeBW,
		"Bal->WC:promote-upd": smallbank.StrategyPromoteBWUpd,
		"all:materialize":     smallbank.StrategyMaterializeALL,
		"all:promote-upd":     smallbank.StrategyPromoteALL,
	}
	measure := func(s *smallbank.Strategy) (float64, error) {
		var tps []float64
		for rep := 0; rep < cfg.Reps; rep++ {
			db, err := newLoadedDB(PostgresDB(cfg.Scale), cfg)
			if err != nil {
				return 0, err
			}
			out, err := workload.Run(db, workload.Config{
				Strategy: s, MPL: 20, Customers: cfg.Customers,
				HotspotSize: hot, HotspotProb: defaultHotProb,
				Ramp: cfg.Ramp, Measure: cfg.Measure,
				Seed: cfg.Seed + int64(rep+1)*104729,
			})
			db.Close()
			if err != nil {
				return 0, err
			}
			tps = append(tps, out.TPS)
		}
		mean, _ := ci95(tps)
		return mean, nil
	}

	type rowT struct {
		name                string
		predicted, measured float64
		sound               bool
	}
	var rows []rowT
	for _, p := range preds {
		s, ok := optionToStrategy[p.Option.Name]
		if !ok {
			continue // sfu options are not sound on PostgreSQL
		}
		cfg.logf("ablation-advisor: measuring %s", s.Name)
		m, err := measure(s)
		if err != nil {
			return nil, err
		}
		rows = append(rows, rowT{p.Option.Name, p.TPS, m, p.Sound})
	}

	// Rank agreement: Spearman-style check on the two orderings.
	rankOf := func(key func(rowT) float64) map[string]int {
		idx := make([]int, len(rows))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return key(rows[idx[a]]) > key(rows[idx[b]]) })
		out := make(map[string]int, len(rows))
		for rank, i := range idx {
			out[rows[i].name] = rank + 1
		}
		return out
	}
	predRank := rankOf(func(r rowT) float64 { return r.predicted })
	measRank := rankOf(func(r rowT) float64 { return r.measured })
	agree := 0
	for name := range predRank {
		if predRank[name] == measRank[name] {
			agree++
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %12s %12s %10s %10s\n", "option", "predicted", "measured", "pred.rank", "meas.rank")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %12.0f %12.0f %10d %10d\n",
			r.name, r.predicted, r.measured, predRank[r.name], measRank[r.name])
	}
	fmt.Fprintf(&b, "\nrank agreement: %d/%d options placed identically\n", agree, len(rows))
	fmt.Fprintf(&b, "advisor recommendation: %s\n", preds[0].Option.Name)

	return &Result{
		ID: "ablation-advisor", Title: "Extension: analytic advisor predictions vs measured throughput (PostgreSQL, MPL 20)",
		Text: b.String(),
		Notes: []string{
			"The advisor is the tool the paper's conclusion calls for: it must rank the",
			"targeted WT repairs above BW, and both above the no-analysis ALL strategies.",
		},
	}, nil
}

// runAblationLatency reports mean response time over MPL for SI and the
// two BW repairs — the driver statistic the paper's §IV protocol records
// ("and also the average response time") but does not plot. It makes
// the closed-system mechanics visible: response time rises with MPL as
// the single CPU saturates, and strategies that turn Balance into an
// updater add the log wait to every transaction.
func runAblationLatency(cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	res := &Result{
		ID: "ablation-latency", Title: "Ablation: mean response time over MPL (PostgreSQL)",
		XLabel: "MPL", YLabel: "mean response time (ms)",
		Notes: []string{
			"Closed system: once the CPU saturates, added clients only add queueing delay,",
			"so response time grows linearly past the throughput knee.",
		},
	}
	for _, s := range []*smallbank.Strategy{
		smallbank.StrategySI, smallbank.StrategyPromoteWTUpd, smallbank.StrategyPromoteBWUpd,
	} {
		series := Series{Name: s.Name}
		for _, mpl := range cfg.MPLs {
			var ms []float64
			for rep := 0; rep < cfg.Reps; rep++ {
				db, err := newLoadedDB(PostgresDB(cfg.Scale), cfg)
				if err != nil {
					return nil, err
				}
				out, err := workload.Run(db, workload.Config{
					Strategy: s, MPL: mpl, Customers: cfg.Customers,
					HotspotSize: hotspotFor(cfg, defaultHotspot), HotspotProb: defaultHotProb,
					Ramp: cfg.Ramp, Measure: cfg.Measure,
					Seed: cfg.Seed + int64(rep+1)*104729,
				})
				db.Close()
				if err != nil {
					return nil, err
				}
				ms = append(ms, float64(out.Latency.Mean().Microseconds())/1000)
			}
			mean, ci := ci95(ms)
			series.Points = append(series.Points, Point{Label: fmt.Sprintf("%d", mpl), Mean: mean, CI: ci})
			cfg.logf("  %-18s MPL %-3d  %6.2f ms ±%.2f", s.Name, mpl, mean, ci)
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// runAblationHotspot sweeps the hotspot size between the paper's two
// operating points (1000 and 10), showing the contention continuum that
// separates Figure 5 from Figure 7.
func runAblationHotspot(cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	res := &Result{
		ID: "ablation-hotspot", Title: "Ablation: hotspot-size sweep at MPL=20 (PostgreSQL, 60% Balance)",
		XLabel: "hotspot size", YLabel: "TPS",
		Notes: []string{
			"Expected: MaterializeBW degrades as the hotspot shrinks (conflict-table",
			"collisions grow ~1/hotspot); PromoteWT-upd tracks SI throughout.",
		},
	}
	hotspots := []int{10, 30, 100, 300, 1000}
	strategies := []*smallbank.Strategy{
		smallbank.StrategySI,
		smallbank.StrategyPromoteWTUpd,
		smallbank.StrategyMaterializeBW,
	}
	for _, s := range strategies {
		series := Series{Name: s.Name}
		for _, h := range hotspots {
			hs := h
			if hs >= cfg.Customers {
				hs = cfg.Customers / 2
			}
			var tps []float64
			for rep := 0; rep < cfg.Reps; rep++ {
				db, err := newLoadedDB(PostgresDB(cfg.Scale), cfg)
				if err != nil {
					return nil, err
				}
				out, err := workload.Run(db, workload.Config{
					Strategy: s, MPL: 20, Customers: cfg.Customers,
					HotspotSize: hs, HotspotProb: defaultHotProb,
					Mix:  workload.BalanceHeavyMix(0.6),
					Ramp: cfg.Ramp, Measure: cfg.Measure,
					Seed: cfg.Seed + int64(rep+1)*104729,
				})
				db.Close()
				if err != nil {
					return nil, err
				}
				tps = append(tps, out.TPS)
			}
			mean, ci := ci95(tps)
			series.Points = append(series.Points, Point{Label: fmt.Sprintf("%d", h), Mean: mean, CI: ci})
			cfg.logf("  %-18s hotspot %-5d %8.0f TPS ±%.0f", s.Name, h, mean, ci)
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}
