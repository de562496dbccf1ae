package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/metrics"
	"sicost/internal/smallbank"
	"sicost/internal/wal"
)

const (
	// The traced pass's caps (sample counts are printed with the figures).
	liveMaxSpans  = 100_000 // per client
	replayMaxTxns = 5000
	// Set-up is repeated this many times before the measure window and
	// this many times after it, so that the two groups, some twenty
	// seconds apart, rarely fall into the same slow spell of the host;
	// setup_s is the lower quartile of them all.
	defaultSetupsBefore = 4
	defaultSetupsAfter  = 4
	// maxClients is the paper's closed-loop client count at this scale;
	// never more clients than CPUs.
	maxClients = 2
)

// runConfig is one invocation's settings.
type runConfig struct {
	root    string // repository root
	seed    int64
	ramp    time.Duration
	measure time.Duration
	// setupsBefore and setupsAfter are how many times set-up is repeated
	// before and after the measure window (untraced pass only; the last
	// instance set up before the window is the one measured).
	setupsBefore, setupsAfter int
	clients                   int
	// replayBudget bounds the traced pass's single-threaded replay.
	replayBudget time.Duration
	outDir       string // where <workload>.trace.jsonl goes
	// walRoot is the parent of embed-durable's segment directories;
	// ensureWALDir picks it on first use when no -waldir named one.
	walRoot    string
	walRootOwn bool // walRoot is a temporary directory to remove on exit

	// sisqld is built on first use and shared by later workloads.
	sisqldBin string
	buildTook time.Duration
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many measurements the figure summarises.
	Samples int `json:"samples,omitempty"`
	// Slices holds the same figure per slice of the measure window (per
	// repetition for setup_s): Value is their median (lower quartile).
	Slices []float64 `json:"slices,omitempty"`
	// Derived marks a self time computed as a difference of separately
	// replayed calls.
	Derived bool `json:"derived,omitempty"`
}

// result is one pass of one workload.
type result struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// ensureWALDir settles walRoot, the parent directory of embed-durable's
// log segments. Unless -waldir named one, that is a temporary directory on /dev/shm
// when the machine has it: on a disk the run measures the disk's fsync
// (3.4k–5.3k tps across five identical runs on this VM's ext4) and not
// the program (69k–75k on tmpfs). Without /dev/shm it falls back to the
// build directory inside the repository.
func (cfg *runConfig) ensureWALDir() error {
	if cfg.walRoot == "" {
		dir, err := os.MkdirTemp("/dev/shm", "benchspine-")
		if err != nil {
			dir = filepath.Join(cfg.root, buildDir, "wal")
		}
		cfg.walRoot, cfg.walRootOwn = dir, err == nil
	}
	return os.MkdirAll(cfg.walRoot, 0o755)
}

// cleanup removes what ensureWALDir created.
func (cfg *runConfig) cleanup() {
	if cfg.walRootOwn {
		os.RemoveAll(cfg.walRoot)
	}
}

func clientCount() int {
	if n := runtime.NumCPU(); n < maxClients {
		return n
	}
	return maxClients
}

// run is one workload pass: set up, ramp, measure, audit. Untraced, it
// yields the end-to-end metrics; traced, the per-layer ones. Metrics
// are withheld (an error is returned) when any audit fails.
func (cfg *runConfig) run(spec *workloadSpec, traced bool) (*result, error) {
	p := &pass{cfg: cfg, spec: spec, traced: traced, m: map[string]metricValue{}}
	var err error
	if spec.Durable {
		if err = cfg.ensureWALDir(); err != nil {
			return nil, err
		}
	}
	if spec.Wire {
		err = p.wire()
	} else {
		err = p.embedded()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	res := &result{Workload: spec.Name, Traced: traced, Correct: true,
		Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metricValue{}}
	for _, ms := range specs {
		v := p.m[ms.Name]
		v.Unit = ms.Unit
		res.Metrics[ms.Name] = v
	}
	return res, nil
}

// pass carries one run's state and collects its metrics.
type pass struct {
	cfg    *runConfig
	spec   *workloadSpec
	traced bool
	m      map[string]metricValue

	attempted, failed int
}

func (p *pass) set(name string, v float64, samples int) {
	p.m[name] = metricValue{Value: v, Samples: samples}
}

// window lengths: the untraced pass measures for the whole of
// cfg.measure; the traced pass splits it between an untraced window
// (the base of its ratios) and the traced live window.
func (p *pass) windows() (untraced, live time.Duration) {
	if !p.traced {
		return p.cfg.measure, 0
	}
	return p.cfg.measure / 2, p.cfg.measure / 2
}

// setupCounts is how often set-up runs before and after the window: the
// traced pass does not report setup_s and sets up once.
func (p *pass) setupCounts() (before, after int) {
	if p.traced {
		return 1, 0
	}
	return p.cfg.setupsBefore, p.cfg.setupsAfter
}

func (p *pass) setupMetric(setups []float64) {
	p.m["setup_s"] = metricValue{Value: lowerQuartile(setups), Samples: len(setups), Slices: setups}
}

// clientMetrics records the untraced window's client-side figures.
func (p *pass) clientMetrics(res *windowResult) latencyStats {
	st := summarise(res)
	p.attempted, p.failed = res.attempted, res.failed
	p.m["tps"] = metricValue{Value: st.tps, Samples: st.samples, Slices: st.tpsSlices}
	p.m["txn_p50_us"] = metricValue{Value: st.p50us, Samples: st.samples, Slices: st.p50Sl}
	p.m["txn_p95_us"] = metricValue{Value: st.p95us, Samples: st.samples, Slices: st.p95Sl}
	p.set("tps_window", st.tpsWindow, st.samples)
	p.set("txn_p99_us", st.p99Window, st.samples)
	for t, name := range []string{"bal", "dc", "ts", "amg", "wc"} {
		p.set("txn."+name+".p50_us", st.typeP50us[t], st.typeSamples[t])
	}
	share := 0.0
	if res.attempted > 0 {
		share = float64(res.failed) / float64(res.attempted)
	}
	p.set("failed_share", share, res.attempted)
	p.set("smallbank.app_rollbacks", float64(res.appRollbacks), res.attempted)
	return st
}

// engineCounters records what the engine's own counters say about the
// untraced window, from two snapshots around it.
func (p *pass) engineCounters(before, after txnCounters) {
	d := after.sub(before)
	tried := d.commits + d.aborts
	share := 0.0
	if tried > 0 {
		share = float64(d.aborts) / float64(tried)
	}
	p.set("engine.abort_share", share, int(tried))
	p.set("engine.aborts_serialization", float64(d.serialization), int(tried))
	p.set("engine.aborts_deadlock", float64(d.deadlock), int(tried))
	p.set("storage.lock_waits", float64(d.lockWaits), int(tried))
	p.set("storage.lock_wait_ms", float64(d.lockWaitNS)/1e6, int(d.lockWaits))
	if d.commits > 0 {
		p.set("engine.allocs_per_txn", float64(d.mallocs)/float64(d.commits), int(d.commits))
	}
}

// txnCounters is the engine-side view both sisqld (/debug/vars) and the
// embedded engine (DB.TxnMetrics, runtime.MemStats) can give.
type txnCounters struct {
	commits, aborts, serialization, deadlock uint64
	lockWaits, lockWaitNS, mallocs           uint64
}

func (c txnCounters) sub(b txnCounters) txnCounters {
	return txnCounters{c.commits - b.commits, c.aborts - b.aborts, c.serialization - b.serialization,
		c.deadlock - b.deadlock, c.lockWaits - b.lockWaits, c.lockWaitNS - b.lockWaitNS, c.mallocs - b.mallocs}
}

// tracedTail is the part of the traced pass common to wire and embedded
// runs: the replay through in-process replicas, the figures derived
// from it, and the trace file.
func (p *pass) tracedTail(st latencyStats, live *windowResult) error {
	liveTPS := float64(live.commits) / live.actual.Seconds()
	if st.tpsWindow > 0 {
		p.set("bench.trace_overhead_share", 1-liveTPS/st.tpsWindow, live.commits)
	}
	var spans []span
	for _, tr := range live.tracers {
		spans = append(spans, tr.spans...)
	}
	liveDurs := durations(spans)
	clientNS := medianNS(liveDurs["bench.encode"]) + medianNS(liveDurs["bench.decode"])
	p.set("bench.client_ns", clientNS, len(liveDurs["bench.encode"]))

	rp, err := newReplay(p.spec, p.cfg.seed, p.cfg.walRoot)
	if err != nil {
		return err
	}
	err = rp.run(p.cfg.seed, p.cfg.replayBudget, replayMaxTxns)
	rp.close()
	if err != nil {
		return err
	}
	durs := durations(rp.tr.spans)
	for metric, key := range map[string]string{
		"server.decode_ns":       "server.decode",
		"server.encode_ns":       "server.encode",
		"server.execute_ns":      "server.execute",
		"sqlmini.parse_ns":       "sqlmini.parse",
		"sqlmini.exec_select_ns": "sqlmini.exec_select",
		"sqlmini.exec_update_ns": "sqlmini.exec_update",
		"engine.begin_ns":        "engine.begin",
		"engine.get_ns":          "engine.get",
		"engine.get_by_index_ns": "engine.get_by_index",
		"engine.update_ns":       "engine.update",
		"engine.commit_ro_ns":    "engine.commit_ro",
		"engine.commit_rw_ns":    "engine.commit_rw",
		"storage.lock_cycle_ns":  "storage.lock_cycle",
		"wal.encode_ns":          "wal.encode",
		"wal.append_sync_ns":     "wal.append_sync",
	} {
		if xs := durs[key]; len(xs) > 0 {
			p.set(metric, medianNS(xs), len(xs))
		}
	}
	for name, xs := range rp.derived {
		p.m[name] = metricValue{Value: medianNS(xs), Samples: len(xs), Derived: true}
	}
	if p.spec.Wire {
		// What is left of a statement's round trip once the server's and
		// the client's own calls are taken out: kernel, loopback,
		// scheduling.
		rest := p.m["stmt_p50_us"].Value*1e3 - p.m["server.decode_ns"].Value -
			p.m["server.execute_ns"].Value - p.m["server.encode_ns"].Value - clientNS
		p.m["net.rtt_self_ns"] = metricValue{Value: rest, Samples: p.m["stmt_p50_us"].Samples, Derived: true}
	} else if n := len(rp.explained); n > 0 {
		p.set("smallbank.stmts_per_txn", float64(rp.stmts)/float64(n), n)
	}
	if st.p50us > 0 {
		p.m["budget.explained_share"] = metricValue{
			Value: medianNS(rp.explained) / (st.p50us * 1e3), Samples: len(rp.explained), Derived: true}
	}
	p.set("bench.build_s", p.cfg.buildTook.Seconds(), 1)

	spans = append(spans, rp.tr.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].trace < spans[j].trace })
	return writeTrace(filepath.Join(p.cfg.outDir, p.spec.Name+".trace.jsonl"), spans)
}

// initialBalances loads the seed's database in process and returns each
// customer's starting balances — what sisqld loaded too, the seed being
// the same.
func initialBalances(seed int64) (saving, checking []int64, err error) {
	db := engine.Open(engine.Config{Mode: core.SnapshotFUW})
	defer db.Close()
	if err = smallbank.CreateSchema(db); err == nil {
		_, err = smallbank.Load(db, smallbank.LoadConfig{Customers: customers, Seed: seed})
	}
	if err != nil {
		return nil, nil, err
	}
	st, err := captureState(db, 0)
	if err != nil {
		return nil, nil, err
	}
	saving, checking = make([]int64, customers), make([]int64, customers)
	for k, v := range st[smallbank.TableSaving] {
		saving[k.I] = v
	}
	for k, v := range st[smallbank.TableChecking] {
		checking[k.I] = v
	}
	return saving, checking, nil
}

// wire runs one pass of a wire-* workload against a real sisqld.
func (p *pass) wire() error {
	cfg := p.cfg
	if cfg.sisqldBin == "" {
		var err error
		if cfg.sisqldBin, cfg.buildTook, err = buildSisqld(cfg.root); err != nil {
			return err
		}
	}
	saving, checking, err := initialBalances(cfg.seed)
	if err != nil {
		return err
	}

	// Set-up: exec → schema loaded and first request answered. Every
	// repetition but the last before the window is stopped again, each
	// stop a drain audit.
	nBefore, nAfter := p.setupCounts()
	var (
		d       *sisqld
		setupsS []float64
	)
	for i := 0; i < nBefore; i++ {
		var took time.Duration
		if d, took, err = setUpSisqld(cfg.sisqldBin, cfg.seed); err != nil {
			return err
		}
		setupsS = append(setupsS, took.Seconds())
		if i < nBefore-1 {
			if err := d.stop(); err != nil {
				return err
			}
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()

	clients := make([]*wireClient, cfg.clients)
	runners := make([]txnRunner, cfg.clients)
	gens := make([]*generator, cfg.clients)
	mismatches := make([]int, cfg.clients)
	for i := range clients {
		c, err := dialWire(d.addr, p.spec.MatAll)
		if err != nil {
			return err
		}
		defer c.close()
		if p.spec.BalanceOnly {
			// Nothing writes on this workload, so every Balance must
			// return the loaded total.
			i := i
			c.prog.checkBalance = func(cust int, total int64) {
				if total != saving[cust]+checking[cust] {
					mismatches[i]++
				}
			}
		}
		clients[i], runners[i], gens[i] = c, c, newGenerator(cfg.seed, i, p.spec.BalanceOnly)
	}
	reset := func() {
		for _, c := range clients {
			c.resetWindow()
		}
	}
	untracedLen, liveLen := p.windows()

	// The reference arm of cost_ratio: the same server, connections and
	// window under plain SI, right before the MaterializeALL window.
	siTPS := 0.0
	if p.traced && p.spec.MatAll {
		for _, c := range clients {
			c.prog.matAll = false
		}
		drive(runners, gens, cfg.ramp, 0)
		siTPS = summarise(drive(runners, gens, untracedLen, 0)).tps
		for _, c := range clients {
			c.prog.matAll = true
		}
	}

	drive(runners, gens, cfg.ramp, 0)
	reset()
	before, err := d.vars()
	if err != nil {
		return err
	}
	untraced := drive(runners, gens, untracedLen, 0)
	after, err := d.vars()
	if err != nil {
		return err
	}
	st := p.clientMetrics(untraced)

	var stmtLat []uint32
	var bytesOut, bytesIn int64
	for _, c := range clients {
		stmtLat = append(stmtLat, c.stmtLat...)
		bytesOut += c.bytesOut
		bytesIn += c.bytesIn
	}
	sortU32(stmtLat)
	p.set("stmt_p50_us", quantileNS(stmtLat, 0.50)/1e3, len(stmtLat))
	p.set("stmt_p99_us", quantileNS(stmtLat, 0.99)/1e3, len(stmtLat))
	if n := untraced.commits; n > 0 {
		p.set("smallbank.stmts_per_txn", float64(len(stmtLat))/float64(n), n)
		p.set("server.bytes_in_per_txn", float64(bytesOut)/float64(n), n)
		p.set("server.bytes_out_per_txn", float64(bytesIn)/float64(n), n)
	}
	p.set("server.requests", float64(after.Server.Requests-before.Server.Requests), 1)
	p.engineCounters(countersOf(before.Txn, before.Mem.Mallocs), countersOf(after.Txn, after.Mem.Mallocs))
	if siTPS > 0 {
		p.set("cost_ratio", st.tps/siTPS, st.samples)
	}

	var live *windowResult
	if p.traced {
		live = drive(runners, gens, liveLen, liveMaxSpans)
	}

	// Audit: the committed-delta ledger against the final balances,
	// read back by point SELECTs (sqlmini has no scans), then the
	// daemon's own drain checks.
	for _, n := range mismatches {
		if n > 0 {
			return fmt.Errorf("audit: %d Balance results differ from the loaded balances", n)
		}
	}
	for _, c := range clients {
		if c.lastErr != nil {
			fmt.Fprintf(os.Stderr, "benchspine: %s: a transaction failed: %v\n", p.spec.Name, c.lastErr)
		}
	}
	if err := auditWire(clients, saving, checking); err != nil {
		return err
	}
	for _, c := range clients {
		c.close()
	}
	stopped = true
	if err := d.stop(); err != nil {
		return err
	}
	for i := 0; i < nAfter; i++ {
		again, took, err := setUpSisqld(cfg.sisqldBin, cfg.seed)
		if err != nil {
			return err
		}
		setupsS = append(setupsS, took.Seconds())
		if err := again.stop(); err != nil {
			return err
		}
	}
	p.setupMetric(setupsS)
	if p.traced {
		return p.tracedTail(st, live)
	}
	return nil
}

func countersOf(t metrics.TxnSnapshot, mallocs uint64) txnCounters {
	return txnCounters{
		commits:       t.Commits,
		aborts:        t.Aborts.Total(),
		serialization: t.Aborts[core.AbortSerialization],
		deadlock:      t.Aborts[core.AbortDeadlock],
		lockWaits:     t.LockWait.Count,
		lockWaitNS:    t.LockWait.SumNanos,
		mallocs:       mallocs,
	}
}

// auditWire sums the clients' ledgers and requires, for every customer
// any of them touched, final balance == initial + committed deltas.
func auditWire(clients []*wireClient, saving, checking []int64) error {
	book := ledger{}
	for _, c := range clients {
		for cust, d := range c.prog.book {
			row := book[cust]
			row[acctSaving] += d[acctSaving]
			row[acctChecking] += d[acctChecking]
			book[cust] = row
		}
	}
	reader := clients[0]
	for cust, d := range book {
		for acct, table := range []string{smallbank.TableSaving, smallbank.TableChecking} {
			s := balanceStmt(table, int64(cust))
			got, err := reader.exec(&s)
			if err != nil {
				return fmt.Errorf("audit: %s: %w", s.sql, err)
			}
			want := []int64{saving[cust], checking[cust]}[acct] + d[acct]
			if got != want {
				return fmt.Errorf("audit: ledger: customer %d %s is %d, acknowledged commits make it %d", cust, table, got, want)
			}
		}
	}
	return nil
}

// embedded runs one pass of an embed-* workload on the library path.
func (p *pass) embedded() error {
	cfg := p.cfg
	// Set-up: engine.Open → schema loaded and first transaction
	// answered.
	nBefore, nAfter := p.setupCounts()
	var setupsS []float64
	setUp := func() (*embedded, error) {
		start := time.Now()
		e, err := openEmbedded(p.spec, cfg.seed, cfg.walRoot)
		if err != nil {
			return nil, err
		}
		err = smallbank.Run(e.db, smallbank.StrategySI, smallbank.Balance, txnInput{}.params())
		setupsS = append(setupsS, time.Since(start).Seconds())
		if err != nil {
			e.close()
			return nil, err
		}
		return e, nil
	}
	var e *embedded
	for i := 0; i < nBefore; i++ {
		var err error
		if e, err = setUp(); err != nil {
			return err
		}
		if i < nBefore-1 {
			e.close()
		}
	}
	closed := false
	defer func() {
		if !closed {
			e.close()
		}
	}()
	initial, err := captureState(e.db, 0)
	if err != nil {
		return err
	}

	clients := make([]*embedClient, cfg.clients)
	runners := make([]txnRunner, cfg.clients)
	gens := make([]*generator, cfg.clients)
	for i := range clients {
		clients[i] = &embedClient{db: e.db}
		runners[i], gens[i] = clients[i], newGenerator(cfg.seed, i, false)
	}
	var watch *logWatcher
	if p.spec.Durable {
		watch = watchLog(e)
	}
	untracedLen, liveLen := p.windows()

	drive(runners, gens, cfg.ramp, 0)
	before := snapshotEmbedded(e, watch)
	untraced := drive(runners, gens, untracedLen, 0)
	after := snapshotEmbedded(e, watch)
	st := p.clientMetrics(untraced)
	p.engineCounters(before.txn, after.txn)
	p.set("engine.publish_waits", float64(after.publishWaits-before.publishWaits), untraced.commits)
	p.set("engine.ckpt_links", float64(after.ckptLinks-before.ckptLinks), 1)
	walD := after.wal
	p.set("wal.syncs", float64(walD.Syncs-before.wal.Syncs), 1)
	p.set("wal.retired_segments", float64(walD.RetiredSegments-before.wal.RetiredSegments), 1)
	if recs := walD.Records - before.wal.Records; recs > 0 {
		p.set("wal.bytes_per_commit", float64(walD.Bytes-before.wal.Bytes)/float64(recs), int(recs))
		if syncs := walD.Syncs - before.wal.Syncs; syncs > 0 {
			p.set("wal.commits_per_sync", float64(recs)/float64(syncs), int(syncs))
		}
	}
	if n := untraced.commits; n > 0 && watch != nil {
		p.set("log_bytes_per_txn", float64(after.appended-before.appended)/float64(n), n)
	}

	var live *windowResult
	if p.traced {
		live = drive(runners, gens, liveLen, liveMaxSpans)
	}
	if watch != nil {
		p.set("engine.ckpt_pause_max_us", float64(watch.finish())/1e3, int(after.ckptLinks))
	}

	for _, c := range clients {
		if c.lastErr != nil {
			fmt.Fprintf(os.Stderr, "benchspine: %s: a transaction failed: %v\n", p.spec.Name, c.lastErr)
		}
	}
	if err := auditEmbedded(e, initial.money(), clients); err != nil {
		return err
	}
	closed = true
	if p.spec.Durable {
		took, err := auditRecovery(e)
		if err != nil {
			return err
		}
		p.set("engine.recover_s", took.Seconds(), 1)
	} else {
		e.close()
	}
	// The window left a heap of hundreds of megabytes, in which the
	// collector would not run during a set-up as it does in a fresh
	// process; give it back first.
	debug.FreeOSMemory()
	for i := 0; i < nAfter; i++ {
		again, err := setUp()
		if err != nil {
			return err
		}
		again.close()
	}
	p.setupMetric(setupsS)
	if p.traced {
		return p.tracedTail(st, live)
	}
	return nil
}

// embeddedSnapshot is the embedded engine's counters at one instant.
type embeddedSnapshot struct {
	txn          txnCounters
	publishWaits uint64
	ckptLinks    int64
	wal          wal.Stats
	appended     int64
}

func snapshotEmbedded(e *embedded, watch *logWatcher) embeddedSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := embeddedSnapshot{
		txn:          countersOf(e.db.TxnMetrics(), ms.Mallocs),
		publishWaits: e.db.Contention().CommitPublishWaits,
		ckptLinks:    e.db.CheckpointStats().Links,
		wal:          e.db.WAL().Stats(),
	}
	if watch != nil {
		s.appended = watch.appended()
	}
	return s
}
