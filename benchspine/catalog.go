package main

// catalog.go is the single list of workloads and metrics. BENCHMARK.json
// at the repository root repeats it for the driver; bench_test.go
// asserts the two agree, name for name.

// workloadSpec describes one closed-loop SmallBank workload.
type workloadSpec struct {
	Name string
	// Wire workloads run out of process against cmd/sisqld over
	// loopback TCP; the others call the embedded engine.
	Wire bool
	// BalanceOnly restricts the mix to the read-only Balance program.
	BalanceOnly bool
	// MatAll applies the MaterializeALL strategy (an UPDATE Conflict in
	// every program, two in Amalgamate).
	MatAll bool
	// Durable attaches a file-backed wal.SegmentLog (embedded only).
	Durable bool
	// SSI runs the embedded engine in core.SerializableSI.
	SSI bool
	// Gated workloads are the ones BENCHMARK.json lists: the driver runs
	// and bounds them. Its time limit covers 4 + 22 runs per workload, and
	// a run must be long for a slow spell of the host to spoil at most two
	// in ten (README.md, "Noise protocol"), so only three are; the others
	// run with -workload all or by name.
	Gated bool
	Why   string
}

var workloads = []workloadSpec{
	{Name: "wire-balance", Wire: true, BalanceOnly: true, Gated: true,
		Why: "sisqld, read-only Balance: serving path only (server codec, sqlmini parse, session dispatch, snapshot reads, loopback); no locks, commit sequencing or log"},
	{Name: "wire-smallbank-si", Wire: true,
		Why: "sisqld, uniform five-program mix under plain SI: the paper's baseline arm; every updating commit waits on the 2.5 ms simulated log sync, so commit structure shows and CPU work does not"},
	{Name: "wire-smallbank-matall", Wire: true, MatAll: true, Gated: true,
		Why: "sisqld, uniform mix under MaterializeALL, the paper's costliest strategy: every program, Balance too, updates and waits on the 2.5 ms simulated log sync; commit structure shows, CPU work does not"},
	{Name: "embed-durable", Durable: true, Gated: true,
		Why: "embedded SI engine with a file-backed segmented WAL, sync commit, fuzzy checkpoints and segment retirement: the program's own cost of a durable commit, no wire or parse"},
	{Name: "embed-ssi", SSI: true,
		Why: "embedded SerializableSI engine, no log: concurrency-control CPU cost alone (SIREAD bookkeeping, rw-antidependency flags, lock table, sequencer)"},
}

func workloadByName(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricSpec describes one reported metric. End-to-end metrics carry a
// regression bound (the share of the parent's median by which the
// metric may worsen); per-layer metrics are informational and have none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// endToEnd is measured with tracing off and reported by every workload.
// In a closed loop without think time tps is clients ÷ mean latency, so
// it gates latency too; the percentiles are per-layer (README.md,
// "Demoted to per-layer", has the measurements that put them there).
var endToEnd = []metricSpec{
	{"tps", "txn/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is reported by the traced pass. A metric that does not apply
// to a workload (server.* on embed-*, wal.* without a device) reads 0
// there; README.md says which should move where.
var perLayer = []metricSpec{
	// Demoted from the end-to-end set: they do not repeat within the
	// bound on every workload, exist on some workloads only, or are 0 by
	// design, so they cannot carry a relative bound.
	{"txn_p50_us", "us", "lower", 0},
	{"txn_p95_us", "us", "lower", 0},
	{"txn_p99_us", "us", "lower", 0},
	// Commits over the whole window by its length: next to tps, the
	// median second, it shows what pauses cost.
	{"tps_window", "txn/s", "higher", 0},
	{"stmt_p50_us", "us", "lower", 0},
	{"stmt_p99_us", "us", "lower", 0},
	{"failed_share", "ratio", "lower", 0},
	{"cost_ratio", "ratio", "higher", 0},
	{"log_bytes_per_txn", "B/txn", "lower", 0},

	{"server.decode_ns", "ns", "lower", 0},
	{"server.encode_ns", "ns", "lower", 0},
	{"server.execute_ns", "ns", "lower", 0},
	{"server.self_ns", "ns", "lower", 0},
	{"server.bytes_in_per_txn", "B/txn", "lower", 0},
	{"server.bytes_out_per_txn", "B/txn", "lower", 0},
	{"server.requests", "count", "higher", 0},

	{"sqlmini.parse_ns", "ns", "lower", 0},
	{"sqlmini.exec_select_ns", "ns", "lower", 0},
	{"sqlmini.exec_update_ns", "ns", "lower", 0},
	{"sqlmini.self_ns", "ns", "lower", 0},

	{"net.rtt_self_ns", "ns", "lower", 0},

	{"engine.begin_ns", "ns", "lower", 0},
	{"engine.get_ns", "ns", "lower", 0},
	{"engine.get_by_index_ns", "ns", "lower", 0},
	{"engine.update_ns", "ns", "lower", 0},
	{"engine.commit_ro_ns", "ns", "lower", 0},
	{"engine.commit_rw_ns", "ns", "lower", 0},
	{"engine.allocs_per_txn", "count", "lower", 0},
	{"engine.abort_share", "ratio", "lower", 0},
	{"engine.aborts_serialization", "count", "lower", 0},
	{"engine.aborts_deadlock", "count", "lower", 0},
	{"engine.publish_waits", "count", "lower", 0},
	{"engine.ckpt_links", "count", "higher", 0},
	{"engine.ckpt_pause_max_us", "us", "lower", 0},
	{"engine.recover_s", "s", "lower", 0},

	{"storage.lock_cycle_ns", "ns", "lower", 0},
	{"storage.lock_waits", "count", "lower", 0},
	{"storage.lock_wait_ms", "ms", "lower", 0},

	{"wal.encode_ns", "ns", "lower", 0},
	{"wal.append_sync_ns", "ns", "lower", 0},
	{"wal.bytes_per_commit", "B/txn", "lower", 0},
	{"wal.syncs", "count", "lower", 0},
	{"wal.commits_per_sync", "ratio", "higher", 0},
	{"wal.retired_segments", "count", "higher", 0},

	{"txn.bal.p50_us", "us", "lower", 0},
	{"txn.dc.p50_us", "us", "lower", 0},
	{"txn.ts.p50_us", "us", "lower", 0},
	{"txn.amg.p50_us", "us", "lower", 0},
	{"txn.wc.p50_us", "us", "lower", 0},

	{"smallbank.stmts_per_txn", "ratio", "lower", 0},
	{"smallbank.app_rollbacks", "count", "lower", 0},

	{"bench.client_ns", "ns", "lower", 0},
	{"bench.build_s", "s", "lower", 0},
	{"bench.trace_overhead_share", "ratio", "lower", 0},
	{"budget.explained_share", "ratio", "higher", 0},
}
