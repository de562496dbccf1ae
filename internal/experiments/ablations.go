package experiments

import (
	"fmt"
	"slices"
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
	return throughput(cfg, &Result{
		ID:    "ablation-fixedrow",
		Title: "Ablation: per-customer vs single-row materialization of the WT edge (PostgreSQL, hotspot 10, 60% Balance)",
		Notes: []string{
			"Expected: the fixed-row variant makes every WC/TS pair conflict regardless of",
			"customer, collapsing throughput well below per-customer materialization.",
		},
	}, strategies(PostgresDB(cfg.Scale), highContention(),
		smallbank.StrategySI, smallbank.StrategyMaterializeWT, smallbank.StrategyMaterializeWTFixed))
}

// runAblationGroupCommit isolates the provenance of the rising
// throughput curve: with group commit disabled (one fsync per commit),
// updater throughput is capped near 1/FsyncLatency and the curve
// flattens immediately.
func runAblationGroupCommit(cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	wl := standard(cfg)
	wl.Strategy = smallbank.StrategySI
	single := PostgresDB(cfg.Scale)
	single.WAL.MaxBatch = 1 // one commit record per device sync
	return throughput(cfg, &Result{
		ID: "ablation-groupcommit", Title: "Ablation: group commit on/off (PostgreSQL, plain SI)",
		Notes: []string{
			"Expected: without group commit the log device serializes commits (~1/fsync per",
			"updater), so throughput saturates far below the group-commit configuration.",
		},
	}, []series{{"group-commit", PostgresDB(cfg.Scale), wl}, {"no-group-commit", single, wl}})
}

// runAblationEngine compares the application-level repairs against
// engine-level serializability: Cahill-style SSI (what PostgreSQL later
// shipped) and strict 2PL, all on the PostgreSQL hardware profile.
func runAblationEngine(cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	on := func(name string, mode core.CCMode, s *smallbank.Strategy) series {
		wl := standard(cfg)
		wl.Strategy = s
		return series{name, ModeDB(mode, cfg.Scale), wl}
	}
	return throughput(cfg, &Result{
		ID: "ablation-engine", Title: "Extension: engine-level serializability (SSI, 2PL) vs app-level strategies (PostgreSQL profile)",
		Notes: []string{
			"SI and PromoteWT-upd bound the app-level cost; SSI pays runtime conflict",
			"tracking and false-positive aborts; 2PL blocks readers behind writers.",
		},
	}, []series{
		on("SI (unsafe)", core.SnapshotFUW, smallbank.StrategySI),
		on("PromoteWT-upd", core.SnapshotFUW, smallbank.StrategyPromoteWTUpd),
		on("SSI engine", core.SerializableSI, smallbank.StrategySI),
		on("2PL engine", core.Strict2PL, smallbank.StrategySI),
	})
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
	wl := standard(cfg)
	wl.MPL = 20
	preds, err := advisor.Advise(smallbank.BasePrograms(), advisor.Workload{
		Weights: weights, HotspotSize: wl.HotspotSize, HotspotProb: wl.HotspotProb, MPL: wl.MPL,
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
		wl.Strategy = s
		rs, err := measure(cfg, PostgresDB(cfg.Scale), wl)
		if err != nil {
			return nil, err
		}
		rows = append(rows, rowT{p.Option.Name, p.TPS, reduce("", rs, tps).Mean, p.Sound})
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
	return sweep(cfg, &Result{
		ID: "ablation-latency", Title: "Ablation: mean response time over MPL (PostgreSQL)",
		XLabel: "MPL", YLabel: "mean response time (ms)",
		Notes: []string{
			"Closed system: once the CPU saturates, added clients only add queueing delay,",
			"so response time grows linearly past the throughput knee.",
		},
	}, strategies(PostgresDB(cfg.Scale), standard(cfg),
		smallbank.StrategySI, smallbank.StrategyPromoteWTUpd, smallbank.StrategyPromoteBWUpd),
		cfg.MPLs, setMPL, func(r *workload.Result) float64 { return float64(r.Latency.Mean().Microseconds()) / 1000 })
}

// runAblationHotspot sweeps the hotspot size between the paper's two
// operating points (1000 and 10), showing the contention continuum that
// separates Figure 5 from Figure 7. Sizes are clamped to the loaded
// table like every hotspot here, and each size is measured once, under
// the label of the size it is.
func runAblationHotspot(cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	sizes := []int{10, 30, 100, 300, 1000}
	for i, h := range sizes {
		sizes[i] = hotspotFor(cfg, h)
	}
	slices.Sort(sizes)
	sizes = slices.Compact(sizes)
	wl := highContention()
	wl.MPL = 20
	return sweep(cfg, &Result{
		ID: "ablation-hotspot", Title: "Ablation: hotspot-size sweep at MPL=20 (PostgreSQL, 60% Balance)",
		XLabel: "hotspot size", YLabel: "TPS",
		Notes: []string{
			"Expected: MaterializeBW degrades as the hotspot shrinks (conflict-table",
			"collisions grow ~1/hotspot); PromoteWT-upd tracks SI throughout.",
		},
	}, strategies(PostgresDB(cfg.Scale), wl,
		smallbank.StrategySI, smallbank.StrategyPromoteWTUpd, smallbank.StrategyMaterializeBW),
		sizes, func(wl *workload.Config, h int) { wl.HotspotSize = h }, tps)
}
