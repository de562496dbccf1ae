// Package workload implements the paper's test driver (§IV): a closed
// system of MPL concurrent clients with no think time, each running
// randomly chosen SmallBank transactions against the engine — 90% of
// transactions on a hotspot region of the customer table — through a
// ramp-up period followed by a measurement interval, tracking commits,
// aborts (by reason) and response times per transaction type. The same
// driver also offers load as an open system (Config.Rate: Poisson
// arrivals, one virtual client each); the arrival process is the only
// thing that differs — one interaction, one retry loop, one Result.
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/faultinject"
	"sicost/internal/metrics"
	"sicost/internal/onlinecheck"
	"sicost/internal/smallbank"
	"sicost/internal/trace"
)

// Mix assigns a probability to each smallbank.TxnType; entries must sum
// to (approximately) 1.
type Mix [smallbank.NumTxnTypes]float64

// UniformMix runs the five transactions with equal probability (most
// experiments in the paper).
func UniformMix() Mix {
	var m Mix
	for i := range m {
		m[i] = 1.0 / float64(len(m))
	}
	return m
}

// BalanceHeavyMix runs Balance with probability pBal and splits the rest
// uniformly (the paper's high-contention experiment uses 60% Balance).
func BalanceHeavyMix(pBal float64) Mix {
	var m Mix
	m[smallbank.Balance] = pBal
	rest := (1 - pBal) / float64(len(m)-1)
	for i := 1; i < len(m); i++ {
		m[i] = rest
	}
	return m
}

// Validate checks the mix sums to 1.
func (m Mix) Validate() error {
	sum := 0.0
	for _, p := range m {
		if p < 0 {
			return fmt.Errorf("workload: negative mix probability %v", p)
		}
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("workload: mix sums to %v, want 1", sum)
	}
	return nil
}

// pick draws a transaction type.
func (m Mix) pick(rng *rand.Rand) smallbank.TxnType {
	r := rng.Float64()
	acc := 0.0
	for i, p := range m {
		acc += p
		if r < acc {
			return smallbank.TxnType(i)
		}
	}
	return smallbank.TxnType(len(m) - 1)
}

// Config parameterizes one workload run.
type Config struct {
	Strategy *smallbank.Strategy
	// Exactly one of MPL and Rate selects the arrival process.
	//
	// MPL is the multiprogramming level of a closed system: that many
	// clients, each starting its next transaction the moment the last
	// one answers. Past saturation a closed system just slows down.
	MPL int
	// Rate offers load as an open system instead: Poisson arrivals at
	// this many per second, each served by its own virtual client, so
	// the number in flight is whatever the rate induces and overload is
	// visible — queueing delay, abort storms, goodput decline land on
	// the engine (pair with engine.Config.Admission and a
	// BudgetedPolicy to measure the decline flattening into a plateau).
	Rate float64
	// MaxInFlight caps the concurrent virtual clients of a Rate run;
	// arrivals past it never touch the engine and are counted in
	// Result.Dropped (default 16384). A driver memory backstop, not
	// admission control.
	MaxInFlight int
	// Customers is the loaded table size (18000 in the paper).
	Customers int
	// HotspotSize is the number of customers in the hotspot (1000
	// normally, 10 for high contention).
	HotspotSize int
	// HotspotProb is the fraction of transactions addressing the
	// hotspot (0.9 in the paper).
	HotspotProb float64
	Mix         Mix
	// Ramp is discarded warm-up time; Measure is the measured interval.
	// An interaction belongs to the window it started (arrived) in.
	Ramp, Measure time.Duration
	Seed          int64
	// Retry chooses the retry discipline: whether, and after how long, a
	// logical transaction is retried after a retriable abort, and when
	// the client gives up and moves on (each attempt's abort is still
	// counted). Nil means ImmediatePolicy{MaxRetries: 50}, the paper's
	// closed-loop behaviour.
	Retry RetryPolicy
	// Check, when non-nil, subscribes this online windowed isolation
	// checker to the run's live trace stream: Run attaches it to the
	// database's lifecycle recorder (installing a private recorder when
	// none is configured) and finalizes its report into Result.Check
	// after the clients drain. The caller constructs the checker so it
	// can also expose the live Stats (e.g. through expvar) while the
	// run is in flight.
	Check *onlinecheck.Checker
}

func (c *Config) defaults() error {
	if c.Strategy == nil {
		c.Strategy = smallbank.StrategySI
	}
	if (c.MPL > 0) == (c.Rate > 0) {
		return fmt.Errorf("workload: exactly one of MPL (closed loop) and Rate (arrivals) must be positive, got MPL %d, Rate %v", c.MPL, c.Rate)
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 16384
	}
	if c.Customers <= 1 {
		return fmt.Errorf("workload: need at least 2 customers")
	}
	if c.HotspotSize <= 1 || c.HotspotSize > c.Customers {
		return fmt.Errorf("workload: hotspot size %d out of range", c.HotspotSize)
	}
	if c.HotspotProb < 0 || c.HotspotProb > 1 {
		return fmt.Errorf("workload: hotspot probability %v out of range", c.HotspotProb)
	}
	var zero Mix
	if c.Mix == zero {
		c.Mix = UniformMix()
	}
	if err := c.Mix.Validate(); err != nil {
		return err
	}
	if c.Measure <= 0 {
		return fmt.Errorf("workload: measurement interval must be positive")
	}
	if c.Retry == nil {
		c.Retry = ImmediatePolicy{MaxRetries: 50}
	}
	return nil
}

// TypeStats aggregates one transaction type's outcomes during the
// measurement interval.
type TypeStats struct {
	typeCounts
	// Latency is the distribution of the client-perceived response time
	// of each committed interaction (including its retries and backoff).
	Latency metrics.HistSnapshot
}

// typeCounts is the part of TypeStats a client keeps for itself; the
// latency distribution is recorded once per run, in a histogram the
// clients share.
type typeCounts struct {
	Commits int64
	// Aborts counts attempts that did not commit, by reason.
	Aborts map[core.AbortReason]int64
	// Retries counts re-attempts after retriable aborts.
	Retries int64
	// Backoff is total time spent sleeping between retries.
	Backoff time.Duration
	// GiveUps counts interactions abandoned when the retry policy
	// refused another attempt (retry or budget exhaustion).
	GiveUps int64
}

// TotalAborts sums aborts across reasons.
func (s *typeCounts) TotalAborts() int64 {
	var n int64
	for _, v := range s.Aborts {
		n += v
	}
	return n
}

// SerializationAbortRate is the fraction of attempts of this type that
// failed with a serialization error — the quantity of the paper's
// Figure 6.
func (s *typeCounts) SerializationAbortRate() float64 {
	attempts := s.Commits + s.TotalAborts()
	if attempts == 0 {
		return 0
	}
	return float64(s.Aborts[core.AbortSerialization]) / float64(attempts)
}

// Result is the outcome of one workload run.
type Result struct {
	Config   Config
	Measured time.Duration
	Commits  int64
	Aborts   int64
	PerType  [smallbank.NumTxnTypes]TypeStats
	// TPS is committed transactions per second over the measurement
	// interval (the goodput of a Rate run).
	TPS float64
	// Latency is the response-time distribution of committed
	// interactions, all types together (PerType has each type's).
	Latency metrics.HistSnapshot
	// Arrivals counts the interactions offered in the measurement
	// interval; Dropped is the subset a Rate run discarded at the
	// MaxInFlight backstop. InFlightPeak is the high-water mark of
	// concurrent clients: MPL in a closed system, the effective MPL the
	// offered rate induced in an open one.
	Arrivals, Dropped, InFlightPeak int64
	// Shed and DeadlineExpired count interactions whose final verdict
	// was core.ErrOverload / core.ErrTxDeadline.
	Shed, DeadlineExpired int64
	// Retries, BackoffTime and GiveUps aggregate the retry discipline's
	// activity over the measurement interval.
	Retries     int64
	BackoffTime time.Duration
	GiveUps     int64
	// BudgetGiveUps is the subset of give-ups caused by the shared
	// retry budget refusing a token (Config.Retry is a BudgetedPolicy
	// whose bucket ran dry), counted over the whole run. These also
	// appear in GiveUps/PerType.GiveUps when they land in the
	// measurement interval.
	BudgetGiveUps int64
	// CommittedDelta is the net money movement of every committed
	// DepositChecking/TransactSaving over the whole run (ramp included):
	// the amount by which smallbank.TotalMoney should have changed when
	// the mix contains no WriteCheck (whose overdraft penalty the client
	// cannot observe). The chaos harness checks conservation against it.
	CommittedDelta int64
	// Contention is the engine's synchronization-counter delta over the
	// whole run (ramp included): lock fast-path/wait/deadlock counts,
	// blocked time, per-stripe wait skew, commit-sequencer waits.
	Contention engine.ContentionStats
	// Engine is the engine-side transaction-metrics delta over the whole
	// run (ramp included): commit count, the abort taxonomy, and the
	// lock-wait and commit-latency histograms.
	Engine metrics.TxnSnapshot
	// Check is the online checker's finalized report when Config.Check
	// was set: the live serializability/SI verdict over the whole run
	// (ramp included) plus window and retirement statistics.
	Check *onlinecheck.Report
	// TraceEvents is the full trace stream the checker consumed, in
	// delivery order — populated only when Config.Check was set AND the
	// database already had a recorder installed (the subscription takes
	// over that recorder's single-consumer role, so callers that also
	// want the raw stream, e.g. cmd/smallbank -trace -check, read it
	// from here instead of draining the recorder themselves).
	TraceEvents []trace.Event
}

// AbortAttribution is the fraction of the run's engine-side aborts that
// carry a specific taxonomy reason (1 when there were none). The
// observability story treats ≥0.95 as healthy; below that, aborts are
// escaping classification and the taxonomy needs a new class.
func (r *Result) AbortAttribution() float64 {
	return r.Engine.Aborts.AttributionRate()
}

// clientStats accumulates outcomes: one per closed-loop client (private,
// no locking), one shared by every virtual client of a Rate run.
type clientStats struct {
	perType [smallbank.NumTxnTypes]typeCounts
	// lat is the run's response-time record, one concurrent histogram
	// per program type shared by every client.
	lat *[smallbank.NumTxnTypes]metrics.Histogram
	// ledger is the committed money movement over the whole run (see
	// Result.CommittedDelta).
	ledger                         int64
	started, shed, deadlineExpired int64
}

func newClientStats(lat *[smallbank.NumTxnTypes]metrics.Histogram) *clientStats {
	cs := &clientStats{lat: lat}
	for i := range cs.perType {
		cs.perType[i].Aborts = make(map[core.AbortReason]int64)
	}
	return cs
}

// add folds one interaction in. Money moved counts over the whole run;
// everything else only when the interaction started in the measurement
// interval.
func (cs *clientStats) add(o outcome, measuring bool) {
	if o.err == nil {
		cs.ledger += ledgerDelta(o.typ, o.params)
	}
	if !measuring {
		return
	}
	cs.started++
	st := &cs.perType[o.typ]
	for r, n := range o.aborts {
		if n > 0 {
			st.Aborts[core.AbortReason(r)] += n
		}
	}
	st.Retries += o.retries
	st.Backoff += o.backoff
	switch {
	case o.err == nil:
		st.Commits++
		cs.lat[o.typ].Record(o.latency)
	case o.gaveUp:
		st.GiveUps++
	}
	switch core.ClassifyAbort(o.err) {
	case core.AbortOverload:
		cs.shed++
	case core.AbortDeadline:
		cs.deadlineExpired++
	}
}

// Run executes the workload against db (already loaded via
// smallbank.Load with cfg.Customers customers). It returns once the
// window has closed and every client has finished or given up.
func Run(db *engine.DB, cfg Config) (*Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}

	// Snapshot the engine's counters so Result reports this run's delta.
	contBase := db.Contention()
	engineBase := db.TxnMetrics()
	var budget *RetryBudget
	var budgetBase int64
	if bp, ok := cfg.Retry.(BudgetedPolicy); ok && bp.Budget != nil {
		budget = bp.Budget
		budgetBase = budget.Denied()
	}

	// Attach the online checker to the trace stream before any client
	// starts, so the very first begin is observed. When the database has
	// no recorder of its own, install a private one for the run; when it
	// does (the caller also wants the raw stream), reuse it and retain
	// the delivered events for Result.TraceEvents.
	var sub *trace.Subscription
	reuseRec := false
	if cfg.Check != nil {
		rec := db.Tracer()
		reuseRec = rec != nil
		if !reuseRec {
			rec = trace.New(trace.Options{})
			db.SetTracer(rec)
		}
		sub = trace.Subscribe(rec, cfg.Check.Ingest,
			trace.SubOptions{Retain: reuseRec})
	}

	// The clock starts after instrumentation setup: allocating a private
	// recorder's rings is real work (notably under the race detector),
	// and it must not eat into the ramp or the measurement interval.
	w := window{start: time.Now()}
	w.measureStart = w.start.Add(cfg.Ramp)
	w.end = w.measureStart.Add(cfg.Measure)

	res := &Result{Config: cfg, Measured: cfg.Measure}
	offer := closedLoop
	if cfg.Rate > 0 {
		offer = arrivals
	}
	lat := new([smallbank.NumTxnTypes]metrics.Histogram)
	stats := offer(db, &cfg, w, res, lat)

	if sub != nil {
		sub.Close() // final drain: every committed event reaches the checker
		// End-of-stream settle pass: with every terminal delivered and no
		// transaction in flight, the floor reaches the newest published
		// CSN and the whole window retires — Result.Check reports the
		// true memory high-water mark, not a tail of unretired commits.
		cfg.Check.Ingest(nil)
		res.Check = cfg.Check.Finalize()
		if reuseRec {
			res.TraceEvents = sub.Events()
		} else {
			db.SetTracer(nil)
		}
	}
	res.Arrivals = res.Dropped // plus every interaction that started, below
	for i := range res.PerType {
		res.PerType[i].Aborts = make(map[core.AbortReason]int64)
	}
	for _, cs := range stats {
		res.CommittedDelta += cs.ledger
		res.Arrivals += cs.started
		res.Shed += cs.shed
		res.DeadlineExpired += cs.deadlineExpired
		for i := range cs.perType {
			from, to := &cs.perType[i], &res.PerType[i]
			to.Commits += from.Commits
			for r, n := range from.Aborts {
				to.Aborts[r] += n
			}
			to.Retries += from.Retries
			to.Backoff += from.Backoff
			to.GiveUps += from.GiveUps
		}
	}
	for i := range res.PerType {
		st := &res.PerType[i]
		st.Latency = lat[i].Snapshot()
		res.Latency = res.Latency.Merge(st.Latency)
		res.Commits += st.Commits
		res.Aborts += st.TotalAborts()
		res.Retries += st.Retries
		res.BackoffTime += st.Backoff
		res.GiveUps += st.GiveUps
	}
	res.TPS = float64(res.Commits) / cfg.Measure.Seconds()
	res.Contention = db.Contention().Delta(contBase)
	res.Engine = db.TxnMetrics().Delta(engineBase)
	if budget != nil {
		res.BudgetGiveUps = budget.Denied() - budgetBase
	}
	return res, nil
}

// window is one run's timeline: ramp from start to measureStart, the
// measurement interval from there to end.
type window struct{ start, measureStart, end time.Time }

// streamRNG seeds request stream id of a run. The multiplier keeps
// neighbouring streams apart; figures and goldens depend on it.
func streamRNG(seed, id int64) *rand.Rand { return rand.New(rand.NewSource(seed + id*7919)) }

// closedLoop is the paper's arrival process: MPL clients, each running
// a transaction, waiting for the reply and immediately starting the
// next (§IV: "no think time") until the window closes. Each client
// accumulates privately; all MPL of them are in flight throughout.
func closedLoop(db *engine.DB, cfg *Config, w window, res *Result, lat *[smallbank.NumTxnTypes]metrics.Histogram) []*clientStats {
	res.InFlightPeak = int64(cfg.MPL)
	var wg sync.WaitGroup
	stats := make([]*clientStats, cfg.MPL)
	for c := range stats {
		stats[c] = newClientStats(lat)
		wg.Add(1)
		go func(id int, cs *clientStats) {
			defer wg.Done()
			db.Machine().EnterSession()
			defer db.Machine().LeaveSession()
			rng := streamRNG(cfg.Seed, int64(id))
			for {
				now := time.Now()
				if now.After(w.end) {
					return
				}
				o := interaction(db, cfg, rng, now, w.end)
				cs.add(o, now.After(w.measureStart))
				if errors.Is(o.err, core.ErrShuttingDown) {
					return // database is draining; the client is done
				}
			}
		}(c, stats[c])
	}
	wg.Wait()
	return stats
}

// arrivals is the open-system arrival process: exponential gaps at
// cfg.Rate, accumulated from the start so timer jitter does not drift
// the offered rate, one goroutine (a session for the length of one
// interaction) per arrival. It records the backstop's drops and the
// in-flight peak in res and returns the shared accumulator.
func arrivals(db *engine.DB, cfg *Config, w window, res *Result, lat *[smallbank.NumTxnTypes]metrics.Histogram) []*clientStats {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex // guards cs
		cs       = newClientStats(lat)
		inFlight atomic.Int64
	)
	gaps := streamRNG(cfg.Seed, 0)
	next := w.start
	for id := int64(0); ; id++ {
		next = next.Add(time.Duration(gaps.ExpFloat64() / cfg.Rate * float64(time.Second)))
		if next.After(w.end) {
			break
		}
		time.Sleep(time.Until(next))
		measuring := next.After(w.measureStart)
		n := inFlight.Add(1)
		if n > int64(cfg.MaxInFlight) {
			inFlight.Add(-1)
			if measuring {
				res.Dropped++
			}
			continue
		}
		res.InFlightPeak = max(res.InFlightPeak, n)
		wg.Add(1)
		go func(id int64, arrived time.Time) {
			defer wg.Done()
			defer inFlight.Add(-1)
			db.Machine().EnterSession()
			defer db.Machine().LeaveSession()
			o := interaction(db, cfg, streamRNG(cfg.Seed+1, id), arrived, w.end)
			mu.Lock()
			cs.add(o, measuring)
			mu.Unlock()
		}(id, next)
	}
	wg.Wait()
	return []*clientStats{cs}
}

// outcome is what one logical interaction did, first attempt to final
// verdict.
type outcome struct {
	typ    smallbank.TxnType
	params smallbank.Params
	// aborts counts the attempts that did not commit, by reason.
	aborts  [metrics.NumAbortReasons]int64
	retries int64
	backoff time.Duration
	// err is the last attempt's error; nil means the interaction
	// committed, after latency (backoff included) from its start.
	err     error
	latency time.Duration
	// gaveUp: the retry policy refused another attempt.
	gaveUp bool
}

// draw picks the next request of a stream: a transaction type from the
// mix, then its parameters.
func draw(cfg *Config, rng *rand.Rand) (smallbank.TxnType, smallbank.Params) {
	typ := cfg.Mix.pick(rng)
	return typ, pickParams(*cfg, rng, typ)
}

// interaction runs one logical transaction to its verdict: draw a
// request, attempt it, and after a retriable abort consult the retry
// policy, back off as told and attempt again with the same parameters.
// It ends on commit, on an error no retry can cure (application
// rollback, shutdown), on the policy's refusal, or — left undecided,
// neither commit nor give-up — when a retry would start past hardStop,
// so a run ends even when every attempt fails.
func interaction(db *engine.DB, cfg *Config, rng *rand.Rand, started, hardStop time.Time) (o outcome) {
	o.typ, o.params = draw(cfg, rng)
	for failures := 0; ; {
		o.err = runAttempt(db, cfg.Strategy, o.typ, o.params)
		if o.err == nil {
			o.latency = time.Since(started)
			return o
		}
		o.aborts[core.ClassifyAbort(o.err)]++
		if !core.IsRetriable(o.err) {
			return o
		}
		failures++
		d, retry := cfg.Retry.Backoff(failures, o.backoff, rng)
		if !retry {
			o.gaveUp = true
			return o
		}
		if d > 0 {
			time.Sleep(d)
			o.backoff += d
		}
		o.retries++
		if time.Now().After(hardStop) {
			return o
		}
	}
}

// runAttempt executes one smallbank attempt, converting an injected
// panic (faultinject.ActPanic) into an ordinary non-retriable error so
// chaos runs keep going; any other panic propagates.
func runAttempt(db *engine.DB, s *smallbank.Strategy, typ smallbank.TxnType, p smallbank.Params) (err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := faultinject.AsPanic(r)
			if !ok {
				panic(r)
			}
			err = f
		}
	}()
	return smallbank.Run(db, s, typ, p)
}

// ledgerDelta is the exact change a committed transaction makes to
// smallbank.TotalMoney: deposits add V, TransactSaving moves V (possibly
// negative) in or out, Balance/Amalgamate conserve. WriteCheck is the
// one program whose delta the client cannot know (the overdraft penalty
// depends on state it raced for), so conservation checks require a mix
// without it.
func ledgerDelta(typ smallbank.TxnType, p smallbank.Params) int64 {
	switch typ {
	case smallbank.DepositChecking, smallbank.TransactSaving:
		return p.V
	default:
		return 0
	}
}

// pickParams draws customers (90% hotspot by default) and an amount.
func pickParams(cfg Config, rng *rand.Rand, typ smallbank.TxnType) smallbank.Params {
	c1 := pickCustomer(cfg, rng)
	p := smallbank.Params{N1: smallbank.CustomerName(c1)}
	switch typ {
	case smallbank.Amalgamate:
		c2 := pickCustomer(cfg, rng)
		for c2 == c1 {
			c2 = pickCustomer(cfg, rng)
		}
		p.N2 = smallbank.CustomerName(c2)
	case smallbank.DepositChecking:
		p.V = 1 + rng.Int63n(100_00)
	case smallbank.TransactSaving:
		// Mostly deposits with occasional withdrawals, so application
		// rollbacks (negative balance) stay rare.
		p.V = rng.Int63n(200_00) - 50_00
	case smallbank.WriteCheck:
		p.V = 1 + rng.Int63n(50_00)
	}
	return p
}

// pickCustomer draws from the hotspot with cfg.HotspotProb, else
// uniformly from the remainder of the table (§IV).
func pickCustomer(cfg Config, rng *rand.Rand) int {
	if rng.Float64() < cfg.HotspotProb {
		return rng.Intn(cfg.HotspotSize)
	}
	if cfg.Customers == cfg.HotspotSize {
		return rng.Intn(cfg.HotspotSize)
	}
	return cfg.HotspotSize + rng.Intn(cfg.Customers-cfg.HotspotSize)
}
