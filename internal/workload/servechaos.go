package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/faultinject"
	"sicost/internal/onlinecheck"
	"sicost/internal/server"
	"sicost/internal/smallbank"
	"sicost/internal/trace"
)

// ServerChaosConfig parameterizes the network-server chaos harness: a
// churn of real TCP clients — connecting, transacting, idling, killed
// mid-statement — against a fault-injected server that is drained by
// Shutdown while the storm is still running. Every cycle must end with
// zero leaked transactions, locks, waiters and admission slots, money
// conserved, and a clean online-checker verdict: the server's
// disconnect-safety contract, exercised the hard way.
type ServerChaosConfig struct {
	// Cycles is the number of open/storm/drain/audit rounds.
	Cycles int
	// Clients is the number of concurrent client goroutines per cycle,
	// each cycling through connections on its own schedule.
	Clients int
	// Customers sizes the SmallBank population (the write hotspot).
	Customers int
	// Churn is how long each cycle's storm runs before Shutdown fires
	// mid-load.
	Churn time.Duration
	// Seed derives every cycle's fault registry and client schedules.
	Seed int64
}

func (c *ServerChaosConfig) defaults() {
	if c.Cycles <= 0 {
		c.Cycles = 3
	}
	if c.Clients <= 0 {
		c.Clients = 24
	}
	if c.Customers <= 0 {
		c.Customers = 50
	}
	if c.Churn <= 0 {
		c.Churn = 250 * time.Millisecond
	}
}

// ServerChaosCycle is one cycle's accounting.
type ServerChaosCycle struct {
	Cycle int
	Mode  core.CCMode
	// Commits counts COMMIT acknowledgements clients actually saw;
	// committed transfers whose acknowledgement died on the wire are
	// invisible here (and that is the point — conservation must hold
	// regardless).
	Commits uint64
	// Kills counts abrupt client-side connection kills (RST via
	// SetLinger(0)); Reconnects counts successful dials.
	Kills, Reconnects uint64
	// ShedSeen counts structured overload rejections clients observed.
	ShedSeen uint64
	// FaultsFired sums wire-level fault injections.
	FaultsFired uint64
	// Server is the final server snapshot for the cycle.
	Server server.Stats
}

// ServerChaosReport aggregates the run.
type ServerChaosReport struct {
	Cycles []ServerChaosCycle
	// Violations lists every broken invariant; empty means the server
	// survived the churn cleanly.
	Violations []string
}

// OK reports whether every audited invariant held in every cycle.
func (r *ServerChaosReport) OK() bool { return len(r.Violations) == 0 }

// RunServerChaos executes the harness. Modes alternate between Strict2PL
// and SerializableSI so both lock-heavy and snapshot-heavy teardown
// paths face the churn; both guarantee serializable executions, so the
// online checker's verdict is an invariant, not an observation.
func RunServerChaos(cfg ServerChaosConfig) (*ServerChaosReport, error) {
	cfg.defaults()
	rep := &ServerChaosReport{}
	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		mode := core.Strict2PL
		if cycle%2 == 1 {
			mode = core.SerializableSI
		}
		cr, err := runServerChaosCycle(cfg, cycle, mode, rep)
		if err != nil {
			return nil, err
		}
		rep.Cycles = append(rep.Cycles, *cr)
	}
	return rep, nil
}

func runServerChaosCycle(cfg ServerChaosConfig, cycle int, mode core.CCMode, rep *ServerChaosReport) (*ServerChaosCycle, error) {
	violate := func(format string, a ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf("cycle %d: ", cycle)+fmt.Sprintf(format, a...))
	}

	faults := faultinject.New(cfg.Seed + int64(cycle)*7919)
	db, initial, err := smallbank.Open(engine.Config{
		Mode: mode, Platform: core.PlatformPostgres,
		LockWaitTimeout: 250 * time.Millisecond,
	}, smallbank.LoadConfig{Customers: cfg.Customers, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}

	// The online checker rides the server's live trace stream — attached
	// after the bulk load so only served traffic is checked.
	rec := trace.New(trace.Options{})
	db.SetTracer(rec)
	check := onlinecheck.New(onlinecheck.Config{SIRules: mode != core.Strict2PL})
	sub := trace.Subscribe(rec, check.Ingest, trace.SubOptions{})

	// Wire-level fault plan: failed reads, partial writes, mid-statement
	// hangups — each at a rate low enough that most traffic flows.
	for _, s := range []faultinject.Spec{
		{Point: server.FaultConnRead, Rate: 0.01, Action: faultinject.ActError},
		{Point: server.FaultConnWrite, Rate: 0.01, Action: faultinject.ActError},
		{Point: server.FaultConnHangup, Rate: 0.005, Action: faultinject.ActError},
	} {
		if err := faults.Arm(s); err != nil {
			return nil, err
		}
	}

	// MaxConns below the client count so admission sheds under the storm;
	// a short idle timeout so abandoned sessions get reaped within the
	// cycle; a drain window shorter than the churn tail so Shutdown
	// exercises the hard-abort path too.
	srv := server.New(server.Config{
		DB:                db,
		MaxConns:          cfg.Clients*3/4 + 1,
		ConnQueue:         4,
		AcceptTimeout:     20 * time.Millisecond,
		IdleTimeout:       60 * time.Millisecond,
		StatementDeadline: 2 * time.Second,
		DrainWindow:       500 * time.Millisecond,
		Faults:            faults,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()

	cr := &ServerChaosCycle{Cycle: cycle, Mode: mode}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for id := 0; id < cfg.Clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(cycle)*1e6 + int64(id)*104729))
			chaosClient(addr, cfg.Customers, rng, &stop, cr)
		}(id)
	}

	time.Sleep(cfg.Churn)
	// The SIGTERM path: drain mid-storm, stragglers hard-aborted.
	srv.Shutdown()
	stop.Store(true)
	wg.Wait()

	// ---- The audit: nothing leaked, nothing lost, nothing reordered.
	st := srv.Stats()
	cr.Server = st
	for _, fs := range faults.Stats() {
		cr.FaultsFired += fs.Fired
	}
	if st.Gate.InFlight != 0 || st.Gate.QueueDepth != 0 {
		violate("admission gate leak: %d in flight, %d queued after drain", st.Gate.InFlight, st.Gate.QueueDepth)
	}
	if st.Conns != 0 {
		violate("connection leak: %d conns registered after drain", st.Conns)
	}
	if n := db.InFlightTxns(); n != 0 {
		violate("transaction leak: %d in flight after drain", n)
	}
	if held, queued := db.LockAudit(); held != 0 || queued != 0 {
		violate("lock leak: %d held, %d queued after drain", held, queued)
	}
	final, err := smallbank.TotalMoney(db)
	if err != nil {
		return nil, err
	}
	if final != initial {
		violate("conservation: total money %d, want %d (zero-sum transfers only)", final, initial)
	}
	sub.Close()
	check.Ingest(nil)
	verdict := check.Finalize()
	if !verdict.Serializable || verdict.SIViolations != 0 {
		violate("online check under churn: %s", verdict.Describe())
	}
	db.SetTracer(nil)

	// DB.Close under a watchdog: a drain bug that wedges the engine's
	// inflight accounting shows up as a hang here, not a pass.
	closed := make(chan struct{})
	go func() { db.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		violate("db.Close wedged: engine did not quiesce after server drain")
	}
	return cr, nil
}

// chaosClient is one churning client: it cycles through connections
// running zero-sum Checking transfers and balance reads, with random
// fates — clean disconnects, RST kills mid-transaction or right after
// COMMIT, idle lapses past the server's reaper. Every fate is legal;
// the server owns the cleanup.
func chaosClient(addr string, customers int, rng *rand.Rand, stop *atomic.Bool, cr *ServerChaosCycle) {
	for !stop.Load() {
		nc, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err != nil {
			time.Sleep(time.Duration(1+rng.Intn(5)) * time.Millisecond)
			continue
		}
		atomic.AddUint64(&cr.Reconnects, 1)
		chaosConn(nc, customers, rng, stop, cr)
	}
}

// chaosConn drives one connection until a random fate or an error ends
// it.
func chaosConn(nc net.Conn, customers int, rng *rand.Rand, stop *atomic.Bool, cr *ServerChaosCycle) {
	defer nc.Close()
	br := bufio.NewReader(nc)

	send := func(q string) (server.Response, bool) {
		b, _ := json.Marshal(server.Request{Q: q})
		nc.SetWriteDeadline(time.Now().Add(2 * time.Second))
		if _, err := nc.Write(append(b, '\n')); err != nil {
			return server.Response{}, false
		}
		for {
			nc.SetReadDeadline(time.Now().Add(2 * time.Second))
			line, err := br.ReadBytes('\n')
			if err != nil {
				return server.Response{}, false
			}
			var r server.Response
			if json.Unmarshal(line, &r) != nil {
				return server.Response{}, false
			}
			// Unsolicited notices (the drain notification) interleave with
			// response lines; skip them unless they end the connection.
			if r.Notice != "" && r.Status == "" && r.Err == "" {
				if r.Final {
					return r, false
				}
				continue
			}
			if r.Err != "" && r.Abort == core.AbortOverload.String() {
				atomic.AddUint64(&cr.ShedSeen, 1)
			}
			return r, !r.Final
		}
	}
	kill := func() {
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetLinger(0) // RST, not FIN: the ungraceful death
		}
		atomic.AddUint64(&cr.Kills, 1)
	}

	for !stop.Load() {
		switch f := rng.Float64(); {
		case f < 0.05:
			// Idle lapse: outlive the server's idle timeout doing nothing.
			time.Sleep(90 * time.Millisecond)
			return
		case f < 0.09:
			// Slow transfer: a long-running transaction trickling zero-sum
			// updates. Active enough to dodge the idle reaper, slow enough
			// to straddle a drain — the straggler the hard-abort path is
			// for. Dying mid-way (or being hard-closed) leaves nothing
			// committed, so conservation is indifferent to its fate.
			a := 1 + rng.Intn(customers)
			b := a%customers + 1
			if _, ok := send("BEGIN"); !ok {
				return
			}
			for i := 0; i < 8; i++ {
				// Both halves must apply (a failed half would break the
				// zero sum — but a failed statement poisons the
				// transaction, so COMMIT below degrades to ROLLBACK).
				r, ok := send(fmt.Sprintf("UPDATE Checking SET Balance = Balance - 1 WHERE CustomerId = %d", a))
				if ok && r.Err == "" {
					r, ok = send(fmt.Sprintf("UPDATE Checking SET Balance = Balance + 1 WHERE CustomerId = %d", b))
				}
				if !ok {
					return
				}
				if r.Err != "" {
					if r.InTx {
						send("ROLLBACK")
					}
					break
				}
				time.Sleep(40 * time.Millisecond)
			}
			if r, ok := send("COMMIT"); !ok {
				return
			} else if r.Err == "" {
				atomic.AddUint64(&cr.Commits, 1)
			}
		case f < 0.28:
			// Autocommit read.
			q := fmt.Sprintf("SELECT Balance FROM Checking WHERE CustomerId = %d", 1+rng.Intn(customers))
			if _, ok := send(q); !ok {
				return
			}
		default:
			// Zero-sum transfer, with a chance of dying at every step.
			a := 1 + rng.Intn(customers)
			b := 1 + rng.Intn(customers)
			if a == b {
				b = a%customers + 1
			}
			v := 1 + rng.Intn(9)
			steps := []string{
				"BEGIN",
				fmt.Sprintf("UPDATE Checking SET Balance = Balance - %d WHERE CustomerId = %d", v, a),
				fmt.Sprintf("UPDATE Checking SET Balance = Balance + %d WHERE CustomerId = %d", v, b),
				"COMMIT",
			}
			for i, q := range steps {
				if rng.Float64() < 0.03 {
					kill()
					return
				}
				r, ok := send(q)
				if !ok {
					return
				}
				if r.Err != "" {
					// Failed statement: abandon the transfer. Retriable or
					// not, ROLLBACK clears the (poisoned) transaction.
					if r.InTx {
						send("ROLLBACK")
					}
					break
				}
				if i == len(steps)-1 {
					atomic.AddUint64(&cr.Commits, 1)
				}
			}
			// Sometimes die right after COMMIT was acknowledged — or just
			// close cleanly and cycle to a fresh connection.
			if rng.Float64() < 0.05 {
				kill()
				return
			}
			if rng.Float64() < 0.1 {
				return
			}
		}
	}
}
