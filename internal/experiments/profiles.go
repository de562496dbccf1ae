// Package experiments defines one runner per table and figure of the
// paper's evaluation (§IV), plus the ablation studies listed in
// DESIGN.md. Each experiment builds the appropriate platform profile,
// loads SmallBank, drives the closed-system workload across the
// configured MPLs and renders the same rows/series the paper reports.
package experiments

import (
	"time"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/simres"
	"sicost/internal/wal"
)

// PostgresResources models the paper's PostgreSQL 8.2 server: a single
// CPU whose per-transaction service time sets the throughput plateau.
// Durations are ~4× faster than the paper's Pentium IV so a full sweep
// finishes in seconds; multiply by Config.Scale to slow the hardware
// down.
func PostgresResources(scale float64) simres.Config {
	return simres.Config{
		VirtualCPUs: 1,
		TxnCPU:      300 * time.Microsecond,
		StmtCPU:     40 * time.Microsecond,
	}.Scaled(scale)
}

// CommercialResources models the commercial platform: higher base cost
// per transaction and a per-session overhead beyond ~20 active sessions,
// which produces the §IV-F peak-then-decline curve.
func CommercialResources(scale float64) simres.Config {
	return simres.Config{
		VirtualCPUs:      1,
		TxnCPU:           300 * time.Microsecond,
		StmtCPU:          50 * time.Microsecond,
		UpdaterCommitCPU: 400 * time.Microsecond,
		SessionKnee:      20,
		SessionOverhead:  55 * time.Microsecond,
	}.Scaled(scale)
}

// LogDevice is the simulated WAL disk: write cache disabled, so every
// sync takes the full 2.5 ms (× scale), one at a time; group commit
// enabled, so a sync carries every commit record that had arrived when
// it started; commit delay enabled, which is the device's own rule and
// has no setting here: a sync waits for the committers the last one
// acknowledged, one sync period at most (internal/wal, syncStart).
func LogDevice(scale float64) wal.Config {
	return wal.Config{FsyncLatency: time.Duration(2500*scale) * time.Microsecond}
}

// PostgresDB assembles an engine configured as the PostgreSQL platform.
func PostgresDB(scale float64) engine.Config {
	cost := engine.DefaultCostModel(core.PlatformPostgres).Scaled(scale)
	return engine.Config{
		Mode:     core.SnapshotFUW,
		Platform: core.PlatformPostgres,
		Res:      PostgresResources(scale),
		WAL:      LogDevice(scale),
		Cost:     &cost,
	}
}

// CommercialDB assembles an engine configured as the commercial
// platform.
func CommercialDB(scale float64) engine.Config {
	cost := engine.DefaultCostModel(core.PlatformCommercial).Scaled(scale)
	return engine.Config{
		Mode:     core.SnapshotFUW,
		Platform: core.PlatformCommercial,
		Res:      CommercialResources(scale),
		WAL:      LogDevice(scale),
		Cost:     &cost,
	}
}

// ModeDB assembles a PostgreSQL-profile engine running an alternative
// concurrency-control mode (2PL, SSI) for the extension experiments.
func ModeDB(mode core.CCMode, scale float64) engine.Config {
	cfg := PostgresDB(scale)
	cfg.Mode = mode
	return cfg
}
