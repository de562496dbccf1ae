// Package server implements the engine's network front-end: a
// long-running TCP server speaking a newline-delimited JSON protocol
// (proto.go), one SQL session per connection, which owns transaction
// lifecycle end-to-end. The contract is disconnect safety: a client
// disconnect, a read or write error, an idle timeout or a hard drain
// abort ALWAYS rolls back the connection's open transaction and
// releases its admission slot — no leaked locks, no pinned snapshots,
// no gate-slot leaks. Connection limits map onto an
// internal/admission.Gate (excess connections are shed with a
// structured retriable error, never a hung dial), per-statement
// deadlines map onto Tx.SetDeadline, and Shutdown layers a graceful
// drain on DB.Close semantics: stop accepting, notify sessions, wait a
// bounded drain window, hard-abort the stragglers.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sicost/internal/admission"
	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/faultinject"
)

// Fault-point names of the wire layer. All three model the network
// failing out from under a live session; the invariant under every one
// of them is the same: the connection's session rolls back and the
// admission slot releases.
const (
	// FaultConnRead fires before each request read. An injected error
	// is a failed read (the connection tears down, open transactions
	// roll back); a delay stalls the reader.
	FaultConnRead = "server/conn/read"
	// FaultConnWrite fires before each response write. An injected
	// error becomes a partial write — a prefix of the response reaches
	// the wire, then the connection tears down; a delay models a slow
	// or congested peer.
	FaultConnWrite = "server/conn/write"
	// FaultConnHangup fires after a statement executes and before its
	// response is written. An injected error drops the connection right
	// there — the mid-statement hangup whose outcome the client can
	// never learn.
	FaultConnHangup = "server/conn/hangup"
)

// Config assembles a server.
type Config struct {
	// DB is the engine instance served; the server never closes it
	// (callers own the DB.Close ordering: Shutdown first, then Close).
	DB *engine.DB
	// MaxConns bounds concurrently served connections via an admission
	// gate; 0 means DefaultMaxConns.
	MaxConns int
	// ConnQueue bounds how many connections past MaxConns may wait for
	// a slot before the rest are shed with core.ErrOverload.
	ConnQueue int
	// AcceptTimeout bounds a queued connection's wait for a slot; 0
	// means DefaultAcceptTimeout. The bound is what turns overload into
	// a fast structured error instead of a hung dial.
	AcceptTimeout time.Duration
	// IdleTimeout closes a connection that sends no request for this
	// long, rolling back its open transaction — the abandoned-session
	// reaper; 0 disables it.
	IdleTimeout time.Duration
	// StatementDeadline is the per-statement time budget, mapped onto
	// Tx.SetDeadline (see SessionConfig); 0 means
	// DefaultStatementDeadline, negative disables it.
	StatementDeadline time.Duration
	// DrainWindow is how long Shutdown waits for connections to finish
	// after notifying them, before hard-closing the rest; 0 means
	// DefaultDrainWindow.
	DrainWindow time.Duration
	// MaxLine bounds one request line in bytes; past it the connection
	// is closed (the line boundary is unrecoverable). 0 means
	// DefaultMaxLine.
	MaxLine int
	// Faults is the registry behind the server/conn/* fault points; nil
	// disables them.
	Faults *faultinject.Registry
}

// Defaults for the zero Config fields.
const (
	DefaultMaxConns          = 256
	DefaultAcceptTimeout     = time.Second
	DefaultDrainWindow       = 2 * time.Second
	DefaultMaxLine           = 1 << 20
	DefaultStatementDeadline = 10 * time.Second
)

// connWriteTimeout bounds every response write, so a peer that stops
// reading cannot wedge a session (or the drain) behind a full socket
// buffer.
const connWriteTimeout = 5 * time.Second

// Server is one TCP front-end over one engine instance.
type Server struct {
	cfg  Config
	db   *engine.DB
	gate *admission.Gate

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	draining bool

	wg sync.WaitGroup // one per accepted connection

	// Counters (see Stats).
	accepted     atomic.Uint64
	shed         atomic.Uint64
	drained      atomic.Uint64
	hardClosed   atomic.Uint64
	abortedOnDsc atomic.Uint64
	idleTimeouts atomic.Uint64
	readErrors   atomic.Uint64
	writeErrors  atomic.Uint64
	protoErrors  atomic.Uint64
	hangups      atomic.Uint64
	requests     atomic.Uint64
}

// New builds a server over cfg.DB.
func New(cfg Config) *Server {
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = DefaultMaxConns
	}
	if cfg.AcceptTimeout <= 0 {
		cfg.AcceptTimeout = DefaultAcceptTimeout
	}
	if cfg.DrainWindow <= 0 {
		cfg.DrainWindow = DefaultDrainWindow
	}
	if cfg.MaxLine <= 0 {
		cfg.MaxLine = DefaultMaxLine
	}
	if cfg.StatementDeadline == 0 {
		cfg.StatementDeadline = DefaultStatementDeadline
	}
	return &Server{
		cfg:   cfg,
		db:    cfg.DB,
		gate:  admission.NewGate(cfg.MaxConns, cfg.ConnQueue),
		conns: map[*conn]struct{}{},
	}
}

// Serve accepts connections on ln until Shutdown closes it. It returns
// nil on a drain-initiated stop, the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return core.ErrShuttingDown
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go s.handle(nc)
	}
}

// ServeConn runs one already-accepted connection through the full
// machinery — admission, protocol loop, teardown — and blocks until the
// connection is done. The in-process transports (tests, fuzzing) use it
// directly.
func (s *Server) ServeConn(nc net.Conn) {
	s.wg.Add(1)
	s.handle(nc)
}

// handle is the per-connection goroutine: admission first, then the
// request loop, then teardown (which owns the disconnect-safety
// guarantee).
func (s *Server) handle(nc net.Conn) {
	defer s.wg.Done()
	s.accepted.Add(1)

	// Connection admission: a slot or a fast structured rejection. The
	// deadline bounds the queue wait so an overloaded server never
	// leaves a dial hanging.
	if err := s.gate.Acquire(time.Now().Add(s.cfg.AcceptTimeout)); err != nil {
		s.shed.Add(1)
		r := errResponse(err, false)
		r.Notice = "connection rejected"
		r.Final = true
		nc.SetWriteDeadline(time.Now().Add(connWriteTimeout))
		nc.Write(EncodeResponse(r))
		nc.Close()
		return
	}
	defer s.gate.Release()

	c := &conn{srv: s, nc: nc,
		sess: NewSession(s.db, SessionConfig{StatementDeadline: s.cfg.StatementDeadline})}
	s.mu.Lock()
	if s.draining {
		// Raced a starting drain: reject like a closed gate.
		s.mu.Unlock()
		r := errResponse(core.ErrShuttingDown, false)
		r.Final = true
		nc.SetWriteDeadline(time.Now().Add(connWriteTimeout))
		nc.Write(EncodeResponse(r))
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()

	c.loop()

	s.mu.Lock()
	delete(s.conns, c)
	draining := s.draining
	s.mu.Unlock()
	if draining && !c.forced.Load() {
		s.drained.Add(1)
	}
}

// Shutdown drains the server: stop accepting, notify every live
// connection, wait up to DrainWindow for them to finish, then
// hard-close the stragglers (their teardown rolls back open
// transactions). It blocks until every connection goroutine has exited;
// the caller then closes the DB. Idempotent; concurrent calls all block
// until the drain completes.
func (s *Server) Shutdown() {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if first {
		if ln != nil {
			ln.Close()
		}
		// Wake queued connection Acquires with ErrShuttingDown and fail
		// all future ones: no admission slot outlives the drain.
		s.gate.Close()
		for _, c := range conns {
			c.notifyDrain()
		}
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainWindow):
		s.mu.Lock()
		rest := make([]*conn, 0, len(s.conns))
		for c := range s.conns {
			rest = append(rest, c)
		}
		s.mu.Unlock()
		for _, c := range rest {
			c.forced.Store(true)
			s.hardClosed.Add(1)
			c.nc.Close()
		}
		<-done
	}
}

// Stats is a point-in-time snapshot of the server counters; cmd/sisqld
// publishes it as the sicost_server expvar.
type Stats struct {
	// Conns is a live gauge (one session each); Accepted counts every
	// connection ever handed to the server.
	Conns    int
	Accepted uint64
	// Shed counts connections rejected at admission (queue full, wait
	// expired, or draining).
	Shed uint64
	// Drained counts connections that finished gracefully during a
	// drain; HardClosed the stragglers forcibly closed after the drain
	// window.
	Drained    uint64
	HardClosed uint64
	// AbortedOnDisconnect counts open transactions rolled back because
	// their connection died (disconnect, read/write error, idle
	// timeout, hard close).
	AbortedOnDisconnect uint64
	// IdleTimeouts, ReadErrors, WriteErrors, ProtocolErrors and Hangups
	// attribute connection teardowns.
	IdleTimeouts   uint64
	ReadErrors     uint64
	WriteErrors    uint64
	ProtocolErrors uint64
	Hangups        uint64
	// Requests counts request lines dispatched.
	Requests uint64
	// Gate is the connection admission gate's snapshot; after a
	// completed drain InFlight and QueueDepth must be zero (the
	// gate-leak invariant).
	Gate admission.GateStats
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	conns := len(s.conns)
	s.mu.Unlock()
	return Stats{
		Conns:               conns,
		Accepted:            s.accepted.Load(),
		Shed:                s.shed.Load(),
		Drained:             s.drained.Load(),
		HardClosed:          s.hardClosed.Load(),
		AbortedOnDisconnect: s.abortedOnDsc.Load(),
		IdleTimeouts:        s.idleTimeouts.Load(),
		ReadErrors:          s.readErrors.Load(),
		WriteErrors:         s.writeErrors.Load(),
		ProtocolErrors:      s.protoErrors.Load(),
		Hangups:             s.hangups.Load(),
		Requests:            s.requests.Load(),
		Gate:                s.gate.Stats(),
	}
}

// conn is one live connection.
type conn struct {
	srv  *Server
	nc   net.Conn
	wmu  sync.Mutex // serializes loop writes against drain notices
	wbuf []byte     // the response line being written; reused, under wmu
	sess *Session
	// forced marks a connection hard-closed by the drain (so its exit
	// counts as a hard abort, not a graceful drain).
	forced atomic.Bool
}

// loop reads requests until the connection dies, then tears down. Every
// exit path funnels through teardown, which rolls back open
// transactions — that single funnel is the disconnect-safety argument.
func (c *conn) loop() {
	defer c.teardown()
	s := c.srv
	sc := bufio.NewScanner(c.nc)
	sc.Buffer(make([]byte, 4096), s.cfg.MaxLine)
	for {
		if d := s.cfg.IdleTimeout; d > 0 {
			c.nc.SetReadDeadline(time.Now().Add(d))
		}
		if err := s.cfg.Faults.Fire(FaultConnRead, faultinject.Ctx{}); err != nil {
			s.readErrors.Add(1)
			return
		}
		if !sc.Scan() {
			switch err := sc.Err(); {
			case err == nil:
				// EOF: clean client disconnect.
			case errors.Is(err, bufio.ErrTooLong):
				s.protoErrors.Add(1)
				c.write(Response{
					Err:   fmt.Sprintf("server: request line exceeds %d bytes", s.cfg.MaxLine),
					Abort: core.AbortOther.String(), Final: true,
				})
			case isTimeout(err):
				s.idleTimeouts.Add(1)
				c.write(Response{Notice: "idle timeout, connection closed", Final: true})
			default:
				s.readErrors.Add(1)
			}
			return
		}
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		s.requests.Add(1)
		req, err := DecodeRequest(line)
		if err != nil {
			s.protoErrors.Add(1)
			// The session is untouched by a line it never saw: report the
			// transaction it still holds, or a client that keys its
			// ROLLBACK on in_tx leaves it open.
			if !c.write(errResponse(err, c.sess.InTx())) {
				return
			}
			continue
		}
		resp := c.sess.Execute(req.Q)
		// The statement has executed; a hangup here is the failure the
		// client can never classify (did my COMMIT land?).
		if err := s.cfg.Faults.Fire(FaultConnHangup, faultinject.Ctx{}); err != nil {
			s.hangups.Add(1)
			return
		}
		if !c.write(resp) {
			return
		}
	}
}

// teardown ends the connection: the session's open transaction rolls
// back and the socket closes. Runs exactly once, on the connection's own
// goroutine, after the loop exits — so the session is never touched
// concurrently.
func (c *conn) teardown() {
	if c.sess.Close() {
		c.srv.abortedOnDsc.Add(1)
	}
	c.nc.Close()
}

// write sends one response line, reporting false when the connection is
// no longer writable (the loop then exits into teardown). The write
// fault point turns injected errors into partial writes: a prefix of
// the line reaches the wire, then the connection dies.
func (c *conn) write(r Response) bool {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = AppendResponse(c.wbuf[:0], r)
	b := c.wbuf
	if err := c.srv.cfg.Faults.Fire(FaultConnWrite, faultinject.Ctx{}); err != nil {
		c.nc.SetWriteDeadline(time.Now().Add(connWriteTimeout))
		c.nc.Write(b[:len(b)/2])
		c.srv.writeErrors.Add(1)
		return false
	}
	c.nc.SetWriteDeadline(time.Now().Add(connWriteTimeout))
	if _, err := c.nc.Write(b); err != nil {
		c.srv.writeErrors.Add(1)
		return false
	}
	return true
}

// notifyDrain sends the drain notice (best-effort: a dead peer is
// already on its way to teardown).
func (c *conn) notifyDrain() {
	c.write(Response{Notice: "draining: server shutting down, finish or disconnect"})
}

// isTimeout reports whether a read error is a deadline expiry (the idle
// timeout) rather than a transport failure.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
