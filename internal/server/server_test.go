package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/faultinject"
	"sicost/internal/smallbank"
)

// newBankDB opens a small SmallBank database for server tests.
func newBankDB(t testing.TB, customers int) *engine.DB {
	t.Helper()
	db := engine.Open(engine.Config{Mode: core.SnapshotFUW, Platform: core.PlatformPostgres})
	if err := smallbank.CreateSchema(db); err != nil {
		t.Fatal(err)
	}
	if _, err := smallbank.Load(db, smallbank.LoadConfig{Customers: customers, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	return db
}

// startServer serves cfg on an ephemeral loopback listener and returns
// the server plus its address. Cleanup drains the server and closes the
// database, asserting the no-leak postconditions every test shares.
func startServer(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Shutdown()
		if n := cfg.DB.InFlightTxns(); n != 0 {
			t.Errorf("transaction leak after drain: %d in flight", n)
		}
		held, queued := cfg.DB.LockAudit()
		if held != 0 || queued != 0 {
			t.Errorf("lock leak after drain: %d held, %d queued", held, queued)
		}
		st := srv.Stats()
		if st.Gate.InFlight != 0 || st.Gate.QueueDepth != 0 {
			t.Errorf("gate leak after drain: %d in flight, %d queued", st.Gate.InFlight, st.Gate.QueueDepth)
		}
		cfg.DB.Close()
	})
	return srv, ln.Addr().String()
}

// client is a test-side protocol client.
type client struct {
	t  testing.TB
	nc net.Conn
	br *bufio.Reader
}

func dial(t testing.TB, addr string) *client {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return &client{t: t, nc: nc, br: bufio.NewReader(nc)}
}

func (c *client) send(q string) Response {
	c.t.Helper()
	req, _ := json.Marshal(Request{Q: q})
	return c.sendLine(req)
}

// sendLine writes one raw request line and reads its response.
func (c *client) sendLine(line []byte) Response {
	c.t.Helper()
	if _, err := c.nc.Write(append(line, '\n')); err != nil {
		c.t.Fatalf("write %q: %v", line, err)
	}
	return c.read()
}

func (c *client) read() Response {
	c.t.Helper()
	line, err := c.br.ReadBytes('\n')
	if err != nil {
		c.t.Fatalf("read response: %v", err)
	}
	var r Response
	if err := json.Unmarshal(line, &r); err != nil {
		c.t.Fatalf("bad response line %q: %v", line, err)
	}
	return r
}

// mustOK fails the test on an error response.
func (c *client) mustOK(q string) Response {
	c.t.Helper()
	r := c.send(q)
	if r.Err != "" {
		c.t.Fatalf("%q: unexpected error %q (abort %s)", q, r.Err, r.Abort)
	}
	return r
}

func TestServerStatements(t *testing.T) {
	db := newBankDB(t, 10)
	_, addr := startServer(t, Config{DB: db})
	c := dial(t, addr)
	defer c.nc.Close()

	r := c.mustOK("SELECT Balance FROM Checking WHERE CustomerId = 1")
	if len(r.Rows) != 1 || len(r.Rows[0]) != 1 {
		t.Fatalf("rows = %v, want one single-column row", r.Rows)
	}
	if r.Rows[0][0].K != core.KindInt {
		t.Fatalf("balance %v, want a number", r.Rows[0][0])
	}
	bal := r.Rows[0][0].Int64()

	if r := c.mustOK("BEGIN"); r.Status != "BEGIN" || !r.InTx {
		t.Fatalf("BEGIN -> %+v", r)
	}
	c.mustOK("UPDATE Checking SET Balance = Balance + 7 WHERE CustomerId = 1")
	if r := c.mustOK("COMMIT"); r.Status != "COMMIT" || r.InTx {
		t.Fatalf("COMMIT -> %+v", r)
	}

	r = c.mustOK("SELECT Balance FROM Checking WHERE CustomerId = 1")
	if got := r.Rows[0][0].Int64(); got != bal+7 {
		t.Fatalf("balance after commit = %v, want %v", got, bal+7)
	}

	// Statement errors carry the abort taxonomy and leave the line usable.
	r = c.send("SELECT * FROM NoSuchTable WHERE X = 1")
	if r.Err == "" || r.Retriable {
		t.Fatalf("bad table -> %+v, want non-retriable error", r)
	}
	c.mustOK("SELECT Balance FROM Checking WHERE CustomerId = 2")
}

// TestServerSessionMultiplexing: there is none. A connection is one
// session, and a request that names another is refused with a
// structured error pointing at the fix — never run on the only session,
// where it would silently join (or commit) somebody else's transaction.
func TestServerSessionMultiplexing(t *testing.T) {
	db := newBankDB(t, 10)
	srv, addr := startServer(t, Config{DB: db})
	c := dial(t, addr)
	defer c.nc.Close()

	c.mustOK("BEGIN")
	c.mustOK("UPDATE Checking SET Balance = Balance + 100 WHERE CustomerId = 3")
	for _, line := range []string{
		`{"q":"COMMIT","session":1}`,
		`{"q":"SELECT Balance FROM Checking WHERE CustomerId = 3","session":15}`,
		`{"session":-1,"q":"ROLLBACK"}`,
	} {
		r := c.sendLine([]byte(line))
		if r.Err == "" || !strings.Contains(r.Err, "open another connection") || r.Retriable {
			t.Fatalf("%s -> %+v, want a non-retriable error telling the client to open another connection", line, r)
		}
		if r.Status != "" || r.Rows != nil {
			t.Fatalf("%s was executed: %+v", line, r)
		}
	}
	if n := srv.Stats().ProtocolErrors; n != 3 {
		t.Fatalf("protocol errors = %d, want 3", n)
	}
	// The refused lines touched nothing: the transaction is still open
	// and still the connection's own; session 0 spelled out is that one.
	if r := c.sendLine([]byte(`{"q":"ROLLBACK","session":0}`)); r.Err != "" || r.Status != "ROLLBACK" {
		t.Fatalf("explicit session 0 -> %+v, want ROLLBACK", r)
	}

	// A second session is a second connection: its committed write stays
	// invisible to the first one's open snapshot (SI).
	c.mustOK("BEGIN")
	before := c.mustOK("SELECT Balance FROM Checking WHERE CustomerId = 3")
	c2 := dial(t, addr)
	defer c2.nc.Close()
	c2.mustOK("UPDATE Checking SET Balance = Balance + 100 WHERE CustomerId = 3")
	during := c.mustOK("SELECT Balance FROM Checking WHERE CustomerId = 3")
	if before.Rows[0][0] != during.Rows[0][0] {
		t.Fatalf("snapshot read moved inside the transaction: %v -> %v", before.Rows[0], during.Rows[0])
	}
	c.mustOK("COMMIT")
	after := c.mustOK("SELECT Balance FROM Checking WHERE CustomerId = 3")
	if after.Rows[0][0].Int64() != before.Rows[0][0].Int64()+100 {
		t.Fatalf("committed write not visible: %v", after.Rows[0])
	}
}

func TestServerDisconnectRollsBack(t *testing.T) {
	db := newBankDB(t, 10)
	srv, addr := startServer(t, Config{DB: db})

	c := dial(t, addr)
	c.mustOK("BEGIN")
	c.mustOK("UPDATE Checking SET Balance = Balance + 50 WHERE CustomerId = 1")
	before := readBalance(t, addr, 1)

	// Abrupt disconnect mid-transaction: the write must vanish and the
	// transaction, its locks and its admission slot must be released.
	c.nc.Close()
	waitFor(t, "disconnect rollback", func() bool {
		return db.InFlightTxns() == 0 && srv.Stats().AbortedOnDisconnect == 1
	})
	if held, queued := db.LockAudit(); held != 0 || queued != 0 {
		t.Fatalf("locks leaked after disconnect: %d held, %d queued", held, queued)
	}
	if got := readBalance(t, addr, 1); got != before {
		t.Fatalf("uncommitted write survived disconnect: %d, want %d", got, before)
	}
}

func TestServerShedsPastMaxConns(t *testing.T) {
	db := newBankDB(t, 4)
	_, addr := startServer(t, Config{DB: db, MaxConns: 1, AcceptTimeout: 30 * time.Millisecond})

	holder := dial(t, addr)
	defer holder.nc.Close()
	holder.mustOK("SELECT Balance FROM Checking WHERE CustomerId = 1")

	shed := dial(t, addr)
	defer shed.nc.Close()
	r := shed.read() // shed without sending anything: admission is per connection
	if r.Err == "" || !r.Retriable || !r.Final {
		t.Fatalf("second connection -> %+v, want final retriable overload", r)
	}
	if r.Abort != core.AbortOverload.String() {
		t.Fatalf("shed abort class = %q, want %q", r.Abort, core.AbortOverload)
	}
}

func TestServerIdleTimeout(t *testing.T) {
	db := newBankDB(t, 4)
	srv, addr := startServer(t, Config{DB: db, IdleTimeout: 50 * time.Millisecond})

	c := dial(t, addr)
	defer c.nc.Close()
	c.mustOK("BEGIN")
	c.mustOK("UPDATE Checking SET Balance = Balance + 1 WHERE CustomerId = 2")

	r := c.read() // the idle reaper's final notice
	if !r.Final || r.Notice == "" {
		t.Fatalf("idle close -> %+v, want final notice", r)
	}
	waitFor(t, "idle rollback", func() bool {
		st := srv.Stats()
		return st.IdleTimeouts == 1 && st.AbortedOnDisconnect == 1 && db.InFlightTxns() == 0
	})
}

func TestServerStatementDeadline(t *testing.T) {
	db := newBankDB(t, 4)
	_, addr := startServer(t, Config{DB: db, StatementDeadline: time.Nanosecond})
	c := dial(t, addr)
	defer c.nc.Close()

	r := c.send("SELECT Balance FROM Checking WHERE CustomerId = 1")
	if r.Err == "" || r.Abort != core.AbortDeadline.String() {
		t.Fatalf("instant deadline -> %+v, want deadline abort", r)
	}
}

func TestServerDrainAbortsOpenTxns(t *testing.T) {
	db := newBankDB(t, 10)
	srv, addr := startServer(t, Config{DB: db, DrainWindow: 80 * time.Millisecond})

	idle := dial(t, addr)
	defer idle.nc.Close()
	idle.mustOK("BEGIN")
	idle.mustOK("UPDATE Checking SET Balance = Balance + 9 WHERE CustomerId = 5")
	before := readBalance(t, addr, 5)

	// The client never finishes: Shutdown must notify, wait the window,
	// then hard-abort it — and the write must not survive.
	start := time.Now()
	srv.Shutdown()
	if waited := time.Since(start); waited < 80*time.Millisecond {
		t.Fatalf("Shutdown returned after %v, before the drain window", waited)
	}
	if r := idle.read(); r.Notice == "" {
		t.Fatalf("drain notice -> %+v", r)
	}
	st := srv.Stats()
	if st.HardClosed != 1 || st.AbortedOnDisconnect != 1 {
		t.Fatalf("drain stats = %+v, want 1 hard-close aborting 1 txn", st)
	}
	if db.InFlightTxns() != 0 {
		t.Fatalf("transaction survived the drain")
	}
	tx := db.Begin()
	rec, err := tx.Get(smallbank.TableChecking, core.Int(5))
	if err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if got := rec[1].Int64(); got != before {
		t.Fatalf("hard-aborted write persisted: %d, want %d", got, before)
	}

	// New connections after the drain either fail to dial (listener
	// closed) or are rejected with the shutdown class.
	if nc, err := net.Dial("tcp", addr); err == nil {
		nc.Close()
	}
}

func TestServerDrainGraceful(t *testing.T) {
	db := newBankDB(t, 4)
	srv, addr := startServer(t, Config{DB: db, DrainWindow: 2 * time.Second})

	c := dial(t, addr)
	c.mustOK("BEGIN")
	done := make(chan struct{})
	go func() { srv.Shutdown(); close(done) }()
	if r := c.read(); r.Notice == "" {
		t.Fatalf("drain notice -> %+v", r)
	}
	c.mustOK("COMMIT")
	c.nc.Close()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Shutdown did not return after the last connection finished")
	}
	st := srv.Stats()
	if st.Drained != 1 || st.HardClosed != 0 {
		t.Fatalf("drain stats = %+v, want 1 graceful drain, 0 hard closes", st)
	}
	if st.AbortedOnDisconnect != 0 {
		t.Fatalf("graceful commit counted as disconnect abort: %+v", st)
	}
}

func TestServerWireFaults(t *testing.T) {
	faults := faultinject.New(7)
	db := newBankDB(t, 10)
	srv, addr := startServer(t, Config{DB: db, Faults: faults})

	// A read fault mid-transaction tears the connection down and rolls
	// back, exactly like a disconnect.
	faults.Arm(faultinject.Spec{Point: FaultConnRead, Rate: 1, After: 2, Action: faultinject.ActError})
	c := dial(t, addr)
	c.mustOK("BEGIN")
	c.mustOK("UPDATE Checking SET Balance = Balance + 3 WHERE CustomerId = 1")
	waitFor(t, "read-fault rollback", func() bool {
		st := srv.Stats()
		return st.ReadErrors >= 1 && st.AbortedOnDisconnect >= 1 && db.InFlightTxns() == 0
	})
	c.nc.Close()
	faults.Disarm(FaultConnRead)

	// A write fault becomes a partial response: the client sees a
	// truncated line, the server rolls back the session.
	faults.Arm(faultinject.Spec{Point: FaultConnWrite, Rate: 1, Action: faultinject.ActError})
	c2 := dial(t, addr)
	req, _ := json.Marshal(Request{Q: "BEGIN"})
	if _, err := c2.nc.Write(append(req, '\n')); err != nil {
		t.Fatal(err)
	}
	line, _ := c2.br.ReadString('\n')
	if strings.Contains(line, "\n") && json.Valid([]byte(line)) {
		t.Fatalf("partial write produced a complete valid line: %q", line)
	}
	waitFor(t, "write-fault teardown", func() bool { return srv.Stats().WriteErrors >= 1 })
	c2.nc.Close()
	faults.Disarm(FaultConnWrite)

	// A hangup fault drops the connection after the statement ran: the
	// client never learns the outcome, but nothing leaks server-side.
	faults.Arm(faultinject.Spec{Point: FaultConnHangup, Rate: 1, Action: faultinject.ActError})
	c3 := dial(t, addr)
	req3, _ := json.Marshal(Request{Q: "SELECT Balance FROM Checking WHERE CustomerId = 2"})
	if _, err := c3.nc.Write(append(req3, '\n')); err != nil {
		t.Fatal(err)
	}
	if _, err := c3.br.ReadString('\n'); err == nil {
		t.Fatal("hangup fault still delivered a response")
	}
	waitFor(t, "hangup teardown", func() bool {
		return srv.Stats().Hangups >= 1 && db.InFlightTxns() == 0
	})
	c3.nc.Close()
	faults.Disarm(FaultConnHangup)
}

func TestServerProtocolErrors(t *testing.T) {
	db := newBankDB(t, 4)
	_, addr := startServer(t, Config{DB: db, MaxLine: 512})
	c := dial(t, addr)
	defer c.nc.Close()

	// Garbage keeps the line alive (the frame boundary is intact)...
	if _, err := c.nc.Write([]byte("not json\n")); err != nil {
		t.Fatal(err)
	}
	if r := c.read(); r.Err == "" || r.Final {
		t.Fatalf("garbage line -> %+v, want non-final error", r)
	}
	c.mustOK("SELECT Balance FROM Checking WHERE CustomerId = 1")

	// ...but an over-long line closes the connection: past the scanner
	// cap the boundary is unrecoverable.
	if _, err := c.nc.Write([]byte(strings.Repeat("x", 4096) + "\n")); err != nil {
		t.Fatal(err)
	}
	if r := c.read(); !r.Final || r.Err == "" {
		t.Fatalf("over-long line -> %+v, want final error", r)
	}
}

// A line the decoder refuses never reaches the session, so the reply
// must report the transaction the session still holds: a client that
// keys its ROLLBACK on in_tx would otherwise leave it open and fail its
// next BEGIN.
func TestServerMalformedLineKeepsTxState(t *testing.T) {
	db := newBankDB(t, 4)
	_, addr := startServer(t, Config{DB: db})
	c := dial(t, addr)
	defer c.nc.Close()

	if r := c.sendLine([]byte("{not json}")); r.Err == "" || r.InTx {
		t.Fatalf("malformed line outside a transaction -> %+v, want an error without in_tx", r)
	}
	c.mustOK("BEGIN")
	for _, line := range []string{"{not json}", `{"q":"COMMIT","session":2}`, `{"q":" "}`} {
		if r := c.sendLine([]byte(line)); r.Err == "" || !r.InTx {
			t.Fatalf("%s inside a transaction -> %+v, want an error carrying in_tx", line, r)
		}
	}
	if r := c.mustOK("ROLLBACK"); r.InTx {
		t.Fatalf("ROLLBACK -> %+v", r)
	}
	c.mustOK("BEGIN")
	c.mustOK("COMMIT")
}

// readBalance fetches Checking.Balance for customer id over a throwaway
// connection.
func readBalance(t testing.TB, addr string, id int) int64 {
	t.Helper()
	c := dial(t, addr)
	defer c.nc.Close()
	r := c.mustOK(fmt.Sprintf("SELECT Balance FROM Checking WHERE CustomerId = %d", id))
	return r.Rows[0][0].Int64()
}

// waitFor polls cond until it holds or a deadline expires — connection
// teardown runs on the server goroutine after the client's Close
// returns, so leak checks need a settle window.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// BenchmarkServerRoundTrip measures one autocommit SELECT round-trip
// over loopback TCP — the protocol's floor: framing, JSON, session
// dispatch, engine read, response encode.
func BenchmarkServerRoundTrip(b *testing.B) {
	db := newBankDB(b, 100)
	_, addr := startServer(b, Config{DB: db})
	c := dial(b, addr)
	defer c.nc.Close()
	req := []byte(`{"q":"SELECT Balance FROM Checking WHERE CustomerId = 42"}` + "\n")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.nc.Write(req); err != nil {
			b.Fatal(err)
		}
		if _, err := c.br.ReadBytes('\n'); err != nil {
			b.Fatal(err)
		}
	}
}
