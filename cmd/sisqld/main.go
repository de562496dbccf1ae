// Command sisqld is the long-running network front-end: it loads a
// SmallBank database and serves the newline-delimited JSON SQL protocol
// (docs/SERVER.md) over TCP. Sessions are disconnect-safe — a dropped
// client always rolls back its open transaction — connection admission
// is bounded (-max-conns, excess sheds with a structured retriable
// error), and SIGTERM/SIGINT triggers a graceful drain: stop accepting,
// notify sessions, wait -drain, hard-abort stragglers, then close the
// engine and exit 0.
//
// Examples:
//
//	sisqld -addr :5433 -mode ssi
//	sisqld -addr 127.0.0.1:0 -customers 100      # ephemeral port, printed on stdout
//	sisqld -max-conns 64 -idle-timeout 30s -stmt-deadline 2s
//	sisqld -pprof localhost:6060                 # sicost_server, sicost_wal expvars + pprof
//
// Talk to it with netcat:
//
//	printf '%s\n' '{"q":"SELECT * FROM Checking WHERE CustomerId = 1"}' | nc localhost 5433
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -pprof server
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"sicost/internal/core"
	"sicost/internal/experiments"
	"sicost/internal/server"
	"sicost/internal/smallbank"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:5433", "TCP listen address (port 0 picks an ephemeral port)")
		platform     = flag.String("platform", "postgres", "platform profile: postgres or commercial")
		mode         = flag.String("mode", "si", "concurrency control: si, 2pl or ssi")
		customers    = flag.Int("customers", 1000, "SmallBank customers loaded at startup")
		seed         = flag.Int64("seed", 1, "load seed")
		maxConns     = flag.Int("max-conns", server.DefaultMaxConns, "concurrent connection limit (admission gate)")
		connQueue    = flag.Int("conn-queue", 0, "connections allowed to queue for a slot past -max-conns")
		idleTimeout  = flag.Duration("idle-timeout", time.Minute, "close connections idle this long, rolling back open transactions (0 = never)")
		stmtDeadline = flag.Duration("stmt-deadline", server.DefaultStatementDeadline, "per-statement time budget mapped onto the transaction deadline (negative = unbounded)")
		drain        = flag.Duration("drain", server.DefaultDrainWindow, "graceful-drain window on SIGTERM before stragglers are hard-aborted")
		lockTimeout  = flag.Duration("locktimeout", 0, "per-transaction lock-wait timeout (0 = wait forever)")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	plat, ccMode, err := core.ParseProfile(*platform, *mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sisqld:", err)
		os.Exit(2)
	}
	engCfg := experiments.PostgresDB(1.0)
	if plat == core.PlatformCommercial {
		engCfg = experiments.CommercialDB(1.0)
	}
	engCfg.Mode = ccMode
	engCfg.LockWaitTimeout = *lockTimeout
	// Serve on free hardware: the simulated per-operation delays model
	// the paper's measured platforms, which is workload-harness business,
	// not an interactive server's.
	engCfg.Res.VirtualCPUs = 0

	// Load with the collector paused: every loaded row stays live, so a
	// collection during the load frees next to nothing. The setting is
	// the process's, which is why the command makes it and not the
	// library.
	start := time.Now()
	gcPercent := debug.SetGCPercent(-1)
	db, _, err := smallbank.Open(engCfg, smallbank.LoadConfig{Customers: *customers, Seed: *seed})
	debug.SetGCPercent(gcPercent)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sisqld:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "sisqld: loaded %d customers in %.1f ms\n", *customers, float64(time.Since(start).Microseconds())/1e3)

	srv := server.New(server.Config{
		DB:                db,
		MaxConns:          *maxConns,
		ConnQueue:         *connQueue,
		IdleTimeout:       *idleTimeout,
		StatementDeadline: *stmtDeadline,
		DrainWindow:       *drain,
	})

	if *pprofAddr != "" {
		// Live server gauges and counters next to the engine's transaction
		// metrics: `curl host/debug/vars` shows connections, sheds, drains and
		// aborted-on-disconnect counts (see docs/SERVER.md).
		expvar.Publish("sicost_server", expvar.Func(func() any { return srv.Stats() }))
		expvar.Publish("sicost_txn_metrics", expvar.Func(func() any { return db.TxnMetrics() }))
		// The log from outside: syncs, records and commits per sync say
		// how the simulated device grouped the commits it made wait.
		expvar.Publish("sicost_wal", expvar.Func(db.LogVars))
		go func() {
			fmt.Fprintf(os.Stderr, "pprof/expvar: http://%s/debug/pprof http://%s/debug/vars\n", *pprofAddr, *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "sisqld: pprof server:", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sisqld:", err)
		os.Exit(1)
	}
	// Stdout, unbuffered by line: the e2e harness (and scripts) parse
	// this line for the ephemeral port.
	fmt.Printf("sisqld: listening on %s\n", ln.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan struct{})
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "sisqld: %s: draining (window %v)...\n", sig, *drain)
		srv.Shutdown()
		close(done)
	}()

	if err := srv.Serve(ln); err != nil {
		fmt.Fprintln(os.Stderr, "sisqld: serve:", err)
		os.Exit(1)
	}
	<-done
	db.Close()

	st := srv.Stats()
	fmt.Printf("sisqld: drained: %d conns served, %d drained, %d hard-closed, %d txns aborted on disconnect, %d shed\n",
		st.Accepted, st.Drained, st.HardClosed, st.AbortedOnDisconnect, st.Shed)
	if st.Gate.InFlight != 0 || st.Gate.QueueDepth != 0 {
		fmt.Fprintf(os.Stderr, "sisqld: admission gate leak: %d in flight, %d queued after drain\n",
			st.Gate.InFlight, st.Gate.QueueDepth)
		os.Exit(1)
	}
	if n := db.InFlightTxns(); n != 0 {
		fmt.Fprintf(os.Stderr, "sisqld: transaction leak: %d in flight after drain\n", n)
		os.Exit(1)
	}
}
