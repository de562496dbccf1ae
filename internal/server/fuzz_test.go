package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/smallbank"
)

// fuzzSrv is a shared server instance for the protocol fuzzer: one
// engine and one Server reused across iterations (per-iteration engines
// would dominate the fuzz loop's cost).
var (
	fuzzOnce sync.Once
	fuzzS    *Server
)

func fuzzServer() *Server {
	fuzzOnce.Do(func() {
		db := engine.Open(engine.Config{Mode: core.SnapshotFUW, Platform: core.PlatformPostgres})
		if err := smallbank.CreateSchema(db); err != nil {
			panic(err)
		}
		if _, err := smallbank.Load(db, smallbank.LoadConfig{Customers: 4, Seed: 1}); err != nil {
			panic(err)
		}
		fuzzS = New(Config{
			DB:       db,
			MaxConns: 64,
			// Generous idle timeout: a backstop against a wedged reader,
			// never the reason an iteration ends. The tight statement
			// deadline keeps an input that waits on a lock held by another
			// worker's connection well under the wedge timeout.
			IdleTimeout:       5 * time.Second,
			StatementDeadline: time.Second,
			MaxLine:           1 << 16,
		})
	})
	return fuzzS
}

// FuzzServerProtocol throws arbitrary bytes at the wire layer twice
// over: DecodeRequest directly (must never panic, and must return what
// the json.Unmarshal-only reference returns — the recognizer for the
// common line shape changes no answer), and a full connection drive
// through ServeConn (the handler must neither panic nor wedge — it must
// return promptly once the client is gone, with no transaction left
// behind — and every response line it writes must decode with
// encoding/json). Seeds cover truncated lines, huge lines, invalid
// UTF-8, requests that name a session (refused: a connection is one
// session), and lines on either side of the recognizer's shape.
func FuzzServerProtocol(f *testing.F) {
	f.Add([]byte(`{"q":"SELECT Balance FROM Checking WHERE CustomerId = 1"}` + "\n"))
	f.Add([]byte(`{"q":"BEGIN","session":3}` + "\n" + `{"q":"COMMIT","session":3}` + "\n"))
	f.Add([]byte(`{"q":"BEGIN","session":1}` + "\n" + `{"q":"BEGIN","session":2}` + "\n"))
	f.Add([]byte(`{"q":"UPDATE Checking SET Balance = Balance + 1 WHERE CustomerId = 1"}`)) // no newline: truncated
	f.Add([]byte(`{"q":"SELECT`))
	f.Add([]byte("{\"q\":\"\xff\xfe not utf8\"}\n"))
	f.Add([]byte(`{"session":99,"q":"SELECT 1"}` + "\n"))
	f.Add([]byte(`{"q":""}` + "\n"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`[1,2,3]` + "\n{}\ntrue\n"))
	f.Add(make([]byte, 9000)) // NULs: one huge garbage line
	f.Add([]byte(`{"q":"SELECT Balance FROM Checking WHERE CustomerId = 1"}`))
	f.Add([]byte(`{"q":"a\"}"}` + "\n")) // the error quotes the statement: a response that needs escapes
	f.Add([]byte("{\"q\":\"caf\xc3\xa9 <&> \x7f\"}"))
	f.Add([]byte(`{"q":"BEGIN"}` + "\n{not json}\n" + `{"q":" rollback ; "}` + "\n" + `{"q":"SELECT * FROM Account WHERE Name = 'x<y>&\u2028'"}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Layer 1: the decoder alone, on the raw bytes as one line.
		checkDecodeAgainstRef(t, data)

		// Layer 2: the full connection machinery over an in-memory pipe.
		srv := fuzzServer()
		sconn, cconn := net.Pipe()
		done := make(chan struct{})
		go func() {
			srv.ServeConn(sconn)
			close(done)
		}()
		// net.Pipe is synchronous: drain everything the server says so
		// its writes never block on us, and hold each complete line to
		// the protocol (a last line cut short by our own Close is not
		// one).
		badLine := make(chan error, 1)
		go func() {
			var first error
			br := bufio.NewReader(cconn)
			for {
				line, err := br.ReadBytes('\n')
				if err != nil {
					badLine <- first
					return
				}
				var r Response
				if err := json.Unmarshal(line, &r); err != nil && first == nil {
					first = fmt.Errorf("response line %q does not decode: %w", line, err)
				}
			}
		}()

		cconn.SetWriteDeadline(time.Now().Add(2 * time.Second))
		cconn.Write(data)
		// A pipe write returns once the other side has read it, and the
		// connection reads again only when it has answered every
		// complete line it holds: after this space (which completes no
		// line and is trimmed off a truncated last one) is taken, the
		// responses to all of data's complete lines have been checked.
		cconn.Write([]byte(" "))
		cconn.Close()

		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("connection handler wedged on %d-byte input", len(data))
		}
		if err := <-badLine; err != nil {
			t.Fatal(err)
		}
		// Whatever transactions the bytes opened died with the conn.
		deadline := time.Now().Add(2 * time.Second)
		for srv.db.InFlightTxns() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("leaked %d transactions after connection teardown", srv.db.InFlightTxns())
			}
			time.Sleep(time.Millisecond)
		}
	})
}
