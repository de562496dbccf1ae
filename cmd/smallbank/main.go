// Command smallbank runs one SmallBank workload configuration and prints
// the full statistics breakdown: throughput, per-type commits, aborts by
// reason, response-time distribution, WAL activity and (optionally) a
// runtime serializability verdict.
//
// Examples:
//
//	smallbank -strategy SI -mpl 20
//	smallbank -strategy MaterializeBW -mpl 20 -hotspot 10 -balmix 0.6
//	smallbank -strategy PromoteWT-sfu -platform commercial -mpl 25
//	smallbank -strategy SI -check          # live online isolation checker
//	smallbank -strategies                  # list strategies
//	smallbank -chaos -mode 2pl -check      # fault-injected run + invariant audit
//	smallbank -crash -crash-cycles 20      # crash/recover chaos + durability audit
//	smallbank -wal waldir                  # durable log directory (resumes if non-empty)
//	smallbank -retry backoff -retries 20   # capped exponential backoff between retries
//	smallbank -trace run.jsonl             # dump the lifecycle event trace
//	smallbank -pprof localhost:6060        # serve pprof/expvar while running
//	smallbank -rate 20000                  # open system: Poisson arrivals instead of -mpl clients
//	smallbank -rate 20000 -admission       # ... behind the adaptive admission gate
//	smallbank -deadline 50ms               # per-transaction time budget
//	smallbank -wal waldir -wal-segment-size 1048576 -ckpt-bytes 4194304 -retire
//	                                       # checkpoints off the commit path + online
//	                                       # segment retirement (bounded log)
//	smallbank -crash -crash-fuzzy
//	                                       # crash chaos with checkpointing live
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -pprof server
	"os"
	"time"

	"sicost/internal/admission"
	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/experiments"
	"sicost/internal/faultinject"
	"sicost/internal/onlinecheck"
	"sicost/internal/smallbank"
	"sicost/internal/trace"
	"sicost/internal/wal"
	"sicost/internal/workload"
)

func main() {
	var (
		strategyName = flag.String("strategy", "SI", "strategy name (see -strategies)")
		listStrats   = flag.Bool("strategies", false, "list strategies and exit")
		platform     = flag.String("platform", "postgres", "platform profile: postgres or commercial")
		mode         = flag.String("mode", "si", "concurrency control: si, 2pl or ssi")
		mpl          = flag.Int("mpl", 20, "multiprogramming level (closed loop; ignored when -rate is set)")
		customers    = flag.Int("customers", 18000, "customers loaded")
		hotspot      = flag.Int("hotspot", 1000, "hotspot size")
		balMix       = flag.Float64("balmix", 0, "Balance fraction (0 = uniform mix)")
		ramp         = flag.Duration("ramp", 500*time.Millisecond, "ramp-up")
		measure      = flag.Duration("measure", 2*time.Second, "measurement interval")
		scale        = flag.Float64("scale", 1.0, "simulated-hardware time scale")
		seed         = flag.Int64("seed", 1, "random seed")
		check        = flag.Bool("check", false, "attach the online windowed isolation checker; a lost serializability guarantee exits 1")
		chaos        = flag.Bool("chaos", false, "arm the default fault plan and audit the standing invariants")
		crash        = flag.Bool("crash", false, "run the crash/recover chaos harness and audit the durability contract")
		crashCycles  = flag.Int("crash-cycles", 20, "crash/recover cycles for -crash")
		crashAsync   = flag.Bool("crash-async", false, "-crash: asynchronous-commit mode, auditing the durable-prefix contract")
		walPath      = flag.String("wal", "", "durable log directory of wal.NNNN segments; a non-empty log is recovered instead of loaded")
		walAsync     = flag.Bool("wal-async", false, "asynchronous commit (synchronous_commit=off): publish before durable")
		walSegSize   = flag.Int64("wal-segment-size", 1<<20, "rotate the log into a fresh wal.NNNN segment at this many bytes")
		ckptBytes    = flag.Int64("ckpt-bytes", 0, "checkpoint after this many bytes of log growth (0 = off)")
		retire       = flag.Bool("retire", false, "retire fully-covered wal.NNNN segments after each checkpoint")
		crashFuzzy   = flag.Bool("crash-fuzzy", false, "-crash: checkpoints + segment retirement live during the rotation")
		lockTimeout  = flag.Duration("locktimeout", 0, "per-transaction lock-wait timeout (0 = wait forever)")
		retryKind    = flag.String("retry", "immediate", "retry policy: immediate, or backoff (capped exponential from 200µs to 20ms, half jitter)")
		retries      = flag.Int("retries", 50, "max retries per interaction")
		tracePath    = flag.String("trace", "", "write the transaction-lifecycle event trace to this JSONL file")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
		rate         = flag.Float64("rate", 0, "open system: Poisson arrivals per second instead of -mpl closed-loop clients (0 = closed loop)")
		admit        = flag.Bool("admission", false, "adaptive admission control in front of Begin (AIMD + abort-storm circuit breaker)")
		admitQueue   = flag.Int("admission-queue", 0, "admission: wait-queue bound; Begins past it are shed (0 = controller default)")
		maxInFlight  = flag.Int("max-inflight", 0, "-rate: driver backstop on concurrent virtual clients (0 = driver default)")
		txDeadline   = flag.Duration("deadline", 0, "per-transaction time budget; expiry aborts with the deadline reason (0 = none)")
		sharedRate   = flag.Float64("retry-shared-rate", 0, "shared retry budget: tokens/sec refill across all clients, bucket of one second's worth (0 = no shared budget)")
	)
	flag.Parse()

	if *listStrats {
		for _, s := range smallbank.Strategies() {
			sound := "sound on both platforms"
			switch {
			case !s.GuaranteesSerializable():
				sound = "no serializability guarantee"
			case !s.SoundOn(core.PlatformPostgres):
				sound = "sound on commercial only"
			}
			fmt.Printf("%-22s %s\n", s.Name, sound)
		}
		return
	}

	strategy, err := smallbank.ByName(*strategyName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smallbank:", err)
		os.Exit(2)
	}

	plat, ccMode, err := core.ParseProfile(*platform, *mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smallbank:", err)
		os.Exit(2)
	}
	engCfg := experiments.PostgresDB(*scale)
	if plat == core.PlatformCommercial {
		engCfg = experiments.CommercialDB(*scale)
	}
	engCfg.Mode = ccMode
	if !strategy.SoundOn(engCfg.Platform) && strategy.GuaranteesSerializable() {
		fmt.Fprintf(os.Stderr, "warning: %s is NOT sound on %s (§II-C)\n", strategy.Name, engCfg.Platform)
	}

	if *crash {
		runCrashChaos(engCfg.Mode, engCfg.Platform, *crashCycles, *seed, *crashAsync, *crashFuzzy)
		return
	}

	engCfg.CheckpointLogBytes = *ckptBytes
	engCfg.RetireSegments = *retire

	var policy workload.RetryPolicy
	switch *retryKind {
	case "immediate":
		policy = workload.ImmediatePolicy{MaxRetries: *retries}
	case "backoff":
		policy = workload.DefaultBackoff(*retries)
	default:
		fmt.Fprintf(os.Stderr, "smallbank: unknown retry policy %q\n", *retryKind)
		os.Exit(2)
	}

	if *sharedRate > 0 {
		policy = workload.BudgetedPolicy{Inner: policy, Budget: workload.NewRetryBudget(*sharedRate, *sharedRate)}
	}

	engCfg.LockWaitTimeout = *lockTimeout
	if *admit {
		acfg := admission.Config{}
		if *admitQueue > 0 {
			acfg.MaxQueue = *admitQueue
		}
		engCfg.Admission = &acfg
	}
	var faults *faultinject.Registry
	if *chaos {
		faults = faultinject.New(*seed)
		engCfg.Faults = faults
	}

	engCfg.AsyncCommit = *walAsync

	var dev *wal.SegmentLog
	if *walPath != "" {
		if dev, err = wal.OpenSegmentLog(*walPath, *walSegSize); err != nil {
			fmt.Fprintln(os.Stderr, "smallbank:", err)
			os.Exit(1)
		}
		defer dev.Close()
		engCfg.WAL.Device = dev
	}

	var db *engine.DB
	if dev != nil && dev.Size() > 0 {
		// The log already holds a database image: rebuild it instead of
		// loading. The customer population is whatever the original run
		// loaded, so derive -customers from the recovered Account table.
		var rep *engine.RecoveryReport
		db, rep, err = engine.Recover(dev, engCfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "smallbank: recover:", err)
			os.Exit(1)
		}
		accounts := 0
		if err := db.ScanLatest(smallbank.TableAccount, func(core.Value, core.Record) bool {
			accounts++
			return true
		}); err != nil {
			fmt.Fprintln(os.Stderr, "smallbank:", err)
			os.Exit(1)
		}
		*customers = accounts
		if *hotspot > *customers {
			*hotspot = *customers
		}
		fmt.Fprintf(os.Stderr,
			"recovered %s: %d segments, %d checkpoint rows, %d commits replayed, %d torn bytes truncated, CSN %d, %d customers\n",
			*walPath, rep.Log.Segments, rep.CheckpointRows, rep.ReplayedCommits, rep.Log.TornBytes, rep.HighCSN, *customers)
	} else {
		fmt.Fprintf(os.Stderr, "loading %d customers...\n", *customers)
		if db, _, err = smallbank.Open(engCfg, smallbank.LoadConfig{Customers: *customers, Seed: *seed}); err != nil {
			fmt.Fprintln(os.Stderr, "smallbank:", err)
			os.Exit(1)
		}
	}
	defer db.Close()
	// Armed after the bulk load: the loader's big batch transactions
	// should neither burn the measured run's per-transaction budget nor
	// fill the trace rings.
	db.SetDefaultTxDeadline(*txDeadline)
	var rec *trace.Recorder
	if *tracePath != "" {
		rec = trace.New(trace.Options{})
		db.SetTracer(rec)
	}

	if *pprofAddr != "" {
		// Standard pprof endpoints plus the engine's transaction metrics
		// as an expvar, so `curl host/debug/vars` shows live counters.
		expvar.Publish("sicost_txn_metrics", expvar.Func(func() any { return db.TxnMetrics() }))
		// Durability lag, flush/sync counters, checkpoint gauges.
		expvar.Publish("sicost_wal", expvar.Func(db.LogVars))
		if lim := db.Admission(); lim != nil {
			// Live admission gauges: concurrency limit, queue depth, shed
			// and deadline-expired counts, breaker state (see
			// OBSERVABILITY.md, sicost_admission).
			expvar.Publish("sicost_admission", expvar.Func(func() any { return lim.Stats() }))
		}
		go func() {
			fmt.Fprintf(os.Stderr, "pprof/expvar: http://%s/debug/pprof http://%s/debug/vars\n", *pprofAddr, *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "smallbank: pprof server:", err)
			}
		}()
	}

	var ochk *onlinecheck.Checker
	if *check {
		// The online windowed checker, fed by the live trace stream, is
		// the one production monitor (internal/checker's offline MVSG is
		// the oracle the tests hold it to). Under 2PL reads legitimately
		// see versions newer than the begin point, so the SI read/write
		// rules only apply to the snapshot-based modes.
		ochk = onlinecheck.New(onlinecheck.Config{SIRules: engCfg.Mode != core.Strict2PL})
		if *pprofAddr != "" {
			expvar.Publish("sicost_onlinecheck", expvar.Func(func() any { return ochk.Stats() }))
		}
	}

	mix := workload.UniformMix()
	if *balMix > 0 {
		mix = workload.BalanceHeavyMix(*balMix)
	} else if *chaos {
		// Leave the mix to RunChaos: its default excludes WriteCheck so
		// the balance-conservation invariant is exactly checkable.
		mix = workload.Mix{}
	}
	cfg := workload.Config{
		Strategy: strategy, Customers: *customers,
		HotspotSize: *hotspot, HotspotProb: 0.9, Mix: mix, // the paper fixes 90 % on the hotspot
		Ramp: *ramp, Measure: *measure, Seed: *seed, Retry: policy,
		Rate: *rate, MaxInFlight: *maxInFlight,
		Check: ochk,
	}
	load := fmt.Sprintf("%.0f arrivals/s offered", *rate)
	if *rate <= 0 {
		cfg.MPL = *mpl
		load = fmt.Sprintf("MPL %d", *mpl)
	}
	fmt.Fprintf(os.Stderr, "running %s on %s/%s: %s, hotspot %d/%d, %v+%v...\n",
		strategy.Name, *platform, *mode, load, *hotspot, *customers, *ramp, *measure)

	// 2PL and SSI guarantee serializable executions regardless of
	// strategy; under plain SI only a sound serializable strategy does
	// (§II-C). Neither faults nor overload may change that. Under bare
	// SI the anomalies ARE the experiment.
	expectSer := engCfg.Mode != core.SnapshotFUW ||
		(strategy.GuaranteesSerializable() && strategy.SoundOn(engCfg.Platform))

	var res *workload.Result
	var chaosRep *workload.ChaosReport
	if *chaos {
		chaosRep, err = workload.RunChaos(db, cfg, workload.ChaosConfig{
			Specs:              workload.DefaultFaultPlan(),
			ExpectSerializable: expectSer && *check,
		})
		if err == nil {
			res = chaosRep.Result
		}
	} else {
		res, err = workload.Run(db, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smallbank:", err)
		os.Exit(1)
	}
	// The run is reported in full before any audit below fails it.
	failed := false

	fmt.Printf("throughput: %.1f TPS (%d commits, %d aborts in %v)\n",
		res.TPS, res.Commits, res.Aborts, res.Measured)
	if *rate > 0 {
		fmt.Printf("offered: %.1f/s (%d arrivals), peak %d in flight\n",
			float64(res.Arrivals)/res.Measured.Seconds(), res.Arrivals, res.InFlightPeak)
	}
	if res.Shed+res.DeadlineExpired+res.Dropped > 0 {
		fmt.Printf("overload: %d shed, %d deadline-expired, %d dropped at driver backstop\n",
			res.Shed, res.DeadlineExpired, res.Dropped)
	}
	fmt.Printf("response time: mean %v, p50 %v, p95 %v, p99 %v\n\n",
		res.Latency.Mean().Round(time.Microsecond),
		res.Latency.Quantile(0.50).Round(time.Microsecond),
		res.Latency.Quantile(0.95).Round(time.Microsecond),
		res.Latency.Quantile(0.99).Round(time.Microsecond))
	fmt.Printf("%-18s %10s %10s %10s %10s %12s %10s\n",
		"type", "commits", "serial", "deadlock", "app", "abort-rate", "p95")
	for t := 0; t < smallbank.NumTxnTypes; t++ {
		st := &res.PerType[t]
		fmt.Printf("%-18s %10d %10d %10d %10d %11.2f%% %10v\n",
			smallbank.TxnType(t).String(), st.Commits,
			st.Aborts[core.AbortSerialization], st.Aborts[core.AbortDeadlock],
			st.Aborts[core.AbortApplication],
			100*st.SerializationAbortRate(),
			st.Latency.Quantile(0.95).Round(time.Microsecond))
	}
	fmt.Printf("\nretries: %d (backoff time %v, give-ups %d, %d by shared budget, policy %s)\n",
		res.Retries, res.BackoffTime.Round(time.Microsecond), res.GiveUps, res.BudgetGiveUps, policy.Name())

	if lim := db.Admission(); lim != nil {
		st := lim.Stats()
		fmt.Printf("admission: limit %d, breaker %s (%d trips, %d grows, %d shrinks)\n",
			st.Gate.Limit, st.Breaker, st.Trips, st.Grows, st.Shrinks)
		fmt.Printf("admission gate: %d admitted, %d queued (avg wait %v), %d shed, %d expired in queue\n",
			st.Gate.Admitted, st.Gate.Queued, st.Gate.AvgWait.Round(time.Microsecond),
			st.Gate.Shed, st.Gate.Expired)
		// Every client has finished, so a held slot or a queued waiter
		// is a leak — one of the assertions `make overload` relies on.
		if st.Gate.InFlight != 0 || st.Gate.QueueDepth != 0 {
			fmt.Fprintf(os.Stderr, "smallbank: admission gate leak: %d in flight, %d queued after drain\n",
				st.Gate.InFlight, st.Gate.QueueDepth)
			failed = true
		}
		// The gate exists to keep goodput up under overload: a measured
		// window in which nothing committed is the collapse it is there to
		// prevent, however clean the drain.
		if res.Commits == 0 {
			fmt.Fprintln(os.Stderr, "smallbank: no transaction committed in the measured window behind the admission gate")
			failed = true
		}
	}

	if *walAsync {
		// Quiesce the async tail so the stats and the checkpoint below
		// cover every published commit.
		db.WAL().Drain()
	}
	ws := db.WAL().Stats()
	fmt.Printf("WAL: %d syncs (%d by their committer), %d records (%.1f commits/sync), %d bytes; %d syncs held (%d until the committers were back, %v in all)\n",
		ws.Syncs, ws.LedFlushes, ws.Records, ws.CommitsPerSync(), ws.Bytes,
		ws.Holds, ws.HoldHits, time.Duration(ws.HeldNanos).Round(time.Microsecond))
	if *walAsync {
		fmt.Printf("async commit: durable CSN %d / committed CSN %d after drain\n",
			db.DurableSeq(), db.CommitSeq())
	}
	if dev != nil {
		// Seal the run with one more checkpoint, so the next -wal run
		// restores it instead of replaying this whole run (and retires
		// covered segments when -retire is on).
		csn, err := db.Checkpoint()
		if err != nil {
			fmt.Fprintln(os.Stderr, "smallbank: checkpoint:", err)
			os.Exit(1)
		}
		cs := db.CheckpointStats()
		ws = db.WAL().Stats()
		fmt.Printf("checkpoint: CSN %d, %d checkpoints, %d bytes live\n", csn, cs.Links, dev.Size())
		fmt.Printf("checkpoint pauses: %v total (%v last); retired %d segments\n",
			time.Duration(cs.PauseNS).Round(time.Microsecond),
			time.Duration(cs.LastPauseNS).Round(time.Microsecond),
			ws.RetiredSegments)
	}

	lc := res.Contention.Lock
	maxStripe, maxWaits := 0, uint64(0)
	for i, w := range lc.PerStripeWaits {
		if w > maxWaits {
			maxStripe, maxWaits = i, w
		}
	}
	fmt.Printf("locks: %d stripes, %d fast-path, %d waits (%v blocked), %d deadlock victims",
		lc.Stripes, lc.FastPath, lc.Waits, lc.WaitTime.Round(time.Microsecond), lc.Deadlocks)
	if lc.Waits > 0 {
		fmt.Printf("; hottest stripe %d (%d waits)", maxStripe, maxWaits)
	}
	fmt.Printf("\ncommit sequencer: %d publish waits\n", res.Contention.CommitPublishWaits)

	eng := res.Engine
	fmt.Printf("\nengine aborts by taxonomy reason (attribution %.1f%%):\n", 100*res.AbortAttribution())
	for r := core.AbortNone + 1; r <= core.AbortOther; r++ {
		if n := eng.Aborts[r]; n > 0 {
			fmt.Printf("  %-15s %d\n", r, n)
		}
	}
	if eng.Aborts.Total() == 0 {
		fmt.Println("  (none)")
	}
	if w := eng.LockWait; w.Count > 0 {
		fmt.Printf("lock-wait histogram: %d waits, mean %v, p95 %v, max %v\n",
			w.Count, w.Mean().Round(time.Microsecond),
			w.Quantile(0.95).Round(time.Microsecond), w.Max().Round(time.Microsecond))
	}
	if c := eng.CommitLatency; c.Count > 0 {
		fmt.Printf("commit latency: %d updating commits, mean %v, p95 %v, max %v\n",
			c.Count, c.Mean().Round(time.Microsecond),
			c.Quantile(0.95).Round(time.Microsecond), c.Max().Round(time.Microsecond))
	}

	if rec != nil {
		rec.SetEnabled(false)
		// With -check attached, the run's subscription consumed the rings
		// and handed the delivered stream back via Result.TraceEvents;
		// only post-run events (the checkpoint) are still in the rings.
		events := append(res.TraceEvents, rec.Drain()...)
		if err := writeTrace(events, rec.Dropped(), *tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "smallbank:", err)
			os.Exit(1)
		}
	}

	if res.Check != nil {
		fmt.Printf("\nonline check: %s", res.Check.Describe())
		st := res.Check.Stats
		fmt.Printf("online window: %d events, peak %d committed + %d in-flight, %d retired, watermark %d\n",
			st.Events, st.MaxWindow, st.MaxPending, st.Retired, st.Watermark)
		if expectSer && (!res.Check.Serializable || res.Check.SIViolations != 0) {
			fmt.Fprintln(os.Stderr, "smallbank: online checker detected isolation violations")
			failed = true
		}
	}

	if chaosRep != nil {
		fmt.Printf("\nchaos: %d faults fired\n", chaosRep.Fired())
		for _, fs := range chaosRep.FaultStats {
			fmt.Printf("  %-26s %-6s %8d hits %8d fired\n", fs.Point, fs.Action, fs.Hits, fs.Fired)
		}
		if chaosRep.ConservationChecked {
			fmt.Printf("conservation: initial %d %+d committed = %d final\n",
				chaosRep.InitialTotal, res.CommittedDelta, chaosRep.FinalTotal)
		} else {
			fmt.Println("conservation: not checked (WriteCheck in mix)")
		}
		fmt.Printf("lock audit: %d held, %d queued\n", chaosRep.HeldLocks, chaosRep.QueuedLocks)
		if chaosRep.OK() {
			fmt.Println("invariants: all held")
		} else {
			fmt.Println("\nINVARIANT VIOLATIONS:")
			for _, v := range chaosRep.Violations {
				fmt.Println("  -", v)
			}
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runCrashChaos drives the crash/recover harness and prints the
// per-cycle durability audit. Exits non-zero if any cycle violates the
// durability contract.
func runCrashChaos(mode core.CCMode, platform core.Platform, cycles int, seed int64, async bool, fuzzy bool) {
	fmt.Fprintf(os.Stderr, "crash chaos: %d crash/recover cycles, mode %s, seed %d, async %v, checkpointing %v...\n",
		cycles, mode, seed, async, fuzzy)
	rep, err := workload.RunCrashChaos(workload.CrashChaosConfig{
		Mode: mode, Platform: platform, Cycles: cycles, Seed: seed,
		Async: async, Fuzzy: fuzzy,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "smallbank:", err)
		os.Exit(1)
	}
	fmt.Printf("%5s %-22s %6s %8s %8s %6s %8s %8s %8s %5s %5s\n",
		"cycle", "crash point", "fired", "commits", "aborts", "torn", "replayed", "highCSN", "durable", "segs", "ckpt")
	for _, c := range rep.Cycles {
		ckpt := ""
		if c.Checkpointed {
			ckpt = "yes"
		}
		fmt.Printf("%5d %-22s %6d %8d %8d %6d %8d %8d %8d %5d %5s\n",
			c.Cycle, c.Point, c.Fired, c.Commits, c.Aborts,
			c.TornBytes, c.ReplayedCommits, c.HighCSN, c.DurableSeq, c.Segments, ckpt)
	}
	fmt.Printf("\ncrashes fired: %d/%d cycles\n", rep.CrashesFired(), len(rep.Cycles))
	fmt.Printf("conservation: initial %d %+d committed = %d final\n",
		rep.InitialTotal, rep.Ledger, rep.FinalTotal)
	fmt.Printf("post-chaos resume: %d commits\n", rep.ResumeCommits)
	if !rep.OK() {
		fmt.Println("\nDURABILITY VIOLATIONS:")
		for _, v := range rep.Violations {
			fmt.Println("  -", v)
		}
		os.Exit(1)
	}
	fmt.Println("durability contract: held across all cycles")
}

// writeTrace sanity-checks the captured stream against the lifecycle
// invariants and writes it as JSONL. Ring overflow is reported but is
// not an error (the trace just has gaps).
func writeTrace(events []trace.Event, dropped uint64, path string) error {
	// A complete stream must satisfy the strict lifecycle invariants;
	// with ring overflow, only the schema-level checks can hold.
	if err := trace.ValidateWith(events, trace.ValidateOptions{AllowGaps: dropped > 0}); err != nil {
		return fmt.Errorf("trace validation: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteJSONL(f, events); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\ntrace: %d events -> %s", len(events), path)
	if dropped > 0 {
		fmt.Printf(" (%d dropped on ring overflow)", dropped)
	}
	fmt.Println()
	return nil
}
