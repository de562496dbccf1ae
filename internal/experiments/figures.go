package experiments

import (
	"sicost/internal/smallbank"
	"sicost/internal/workload"
)

// Default workload shape shared by Figures 4–6, 8 and 9 (§IV): 18000
// customers, hotspot 1000, 90% of transactions on the hotspot, uniform
// mix.
const (
	defaultHotspot = 1000
	defaultHotProb = 0.9
)

// hotspotFor clamps the standard hotspot to the loaded table size (quick
// runs load fewer customers).
func hotspotFor(cfg Config, want int) int {
	if want >= cfg.Customers {
		return cfg.Customers / 2
	}
	return want
}

// standard is the workload of Figures 4–6, 8 and 9.
func standard(cfg Config) workload.Config {
	return workload.Config{Mix: workload.UniformMix(),
		HotspotSize: hotspotFor(cfg, defaultHotspot), HotspotProb: defaultHotProb}
}

// highContention is Figure 7's workload: 60% Balance, 90% of
// transactions on a hotspot of 10 customers.
func highContention() workload.Config {
	return workload.Config{Mix: workload.BalanceHeavyMix(0.6), HotspotSize: 10, HotspotProb: defaultHotProb}
}

// runFig4 — eliminating ALL vulnerable edges on PostgreSQL: SI vs
// MaterializeALL vs PromoteALL.
func runFig4(cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	return throughput(cfg, &Result{
		ID: "fig4", Title: "Figure 4: costs for SI-serializability when eliminating ALL vulnerable edges (PostgreSQL)",
		Notes: []string{
			"Paper shape: PromoteALL starts ~20% below SI and climbs to ~95%;",
			"MaterializeALL plateaus ~25% below SI.",
		},
	}, strategies(PostgresDB(cfg.Scale), standard(cfg),
		smallbank.StrategySI, smallbank.StrategyMaterializeALL, smallbank.StrategyPromoteALL))
}

// fig5Strategies are the four targeted repairs compared in Figure 5.
func fig5Strategies() []*smallbank.Strategy {
	return []*smallbank.Strategy{
		smallbank.StrategySI,
		smallbank.StrategyMaterializeBW,
		smallbank.StrategyPromoteBWUpd,
		smallbank.StrategyMaterializeWT,
		smallbank.StrategyPromoteWTUpd,
	}
}

// runFig5 — throughput of the WT and BW options on PostgreSQL, absolute
// (a) and relative to SI (b).
func runFig5(cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	return withRelative(throughput(cfg, &Result{
		ID: "fig5", Title: "Figure 5: throughput over MPL, Options WT and BW (PostgreSQL)",
		Notes: []string{
			"Paper shape: PromoteWT indistinguishable from SI; MaterializeWT ~90% of SI's peak;",
			"BW options pay ~20% at MPL=1 (Balance must hit the log disk) and converge upward.",
			"Relative: WT options ~100% at MPL=1; BW options ~80% at MPL=1 (the 5/4 disk-write ratio);",
			"the gap narrows as MPL grows — the reverse cost profile of Option WT.",
		},
	}, strategies(PostgresDB(cfg.Scale), standard(cfg), fig5Strategies()...)))
}

// runFig6 — serialization-failure abort rates per transaction type at
// MPL=20 on PostgreSQL.
func runFig6(cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	res := &Result{
		ID: "fig6", Title: "Figure 6: serialization-failure abort rate by transaction type, MPL=20 (PostgreSQL)",
		XLabel: "transaction type", YLabel: "% aborted (serialization failure)",
		Notes: []string{
			"Paper shape: PromoteBW-upd shows markedly higher abort rates for Balance,",
			"DepositChecking and Amalgamate than SI or the other strategies, because the",
			"promoted Balance write conflicts with every updater of Checking.",
		},
	}
	wl := standard(cfg)
	wl.MPL = 20
	for _, s := range strategies(PostgresDB(cfg.Scale), wl, fig5Strategies()...) {
		cfg.logf("fig6: %s", s.name)
		rs, err := measure(cfg, s.eng, s.wl)
		if err != nil {
			return nil, err
		}
		line := Series{Name: s.name}
		for t := range smallbank.NumTxnTypes {
			line.Points = append(line.Points, reduce(smallbank.TxnType(t).String(), rs, func(r *workload.Result) float64 {
				return 100 * r.PerType[t].SerializationAbortRate()
			}))
		}
		res.Series = append(res.Series, line)
	}
	return res, nil
}

// runFig7 — high contention: hotspot of 10 customers, 60% Balance mix.
func runFig7(cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	return throughput(cfg, &Result{
		ID: "fig7", Title: "Figure 7: costs with high contention (PostgreSQL; hotspot 10, 60% Balance)",
		Notes: []string{
			"Paper shape: eliminating the WT edge costs almost nothing; MaterializeBW ~½ of SI;",
			"the ALL strategies bottom out around 40% of SI — the headline 'up to 60% lower throughput'.",
		},
	}, strategies(PostgresDB(cfg.Scale), highContention(),
		append(fig5Strategies(), smallbank.StrategyMaterializeALL, smallbank.StrategyPromoteALL)...))
}

// runFig8 — Option WT on the commercial platform, absolute and relative.
func runFig8(cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	return withRelative(throughput(cfg, &Result{
		ID: "fig8", Title: "Figure 8: eliminating the WT vulnerability (Commercial Platform)",
		Notes: []string{
			"Paper shape: throughput peaks near MPL 20-25 then declines (per-session overhead);",
			"PromoteWT-sfu reaches SI's peak; materialization beats promotion-by-update here —",
			"the reverse of PostgreSQL (guideline 4).",
		},
	}, strategies(CommercialDB(cfg.Scale), standard(cfg), smallbank.StrategySI,
		smallbank.StrategyMaterializeWT, smallbank.StrategyPromoteWTSfu, smallbank.StrategyPromoteWTUpd)))
}

// runFig9 — Option BW on the commercial platform, absolute and relative.
func runFig9(cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	return withRelative(throughput(cfg, &Result{
		ID: "fig9", Title: "Figure 9: eliminating the BW vulnerability (Commercial Platform)",
		Notes: []string{
			"Paper shape: every BW repair loses at least ~10% of peak; PromoteBW-upd peaks at",
			"~80% of SI's throughput.",
		},
	}, strategies(CommercialDB(cfg.Scale), standard(cfg), smallbank.StrategySI,
		smallbank.StrategyMaterializeBW, smallbank.StrategyPromoteBWSfu, smallbank.StrategyPromoteBWUpd)))
}
