package server

import (
	"encoding/json"
	"fmt"
	"strings"

	"sicost/internal/core"
)

// The wire protocol is newline-delimited JSON: one request object per
// line in, one response object per line out, in request order. A
// connection is one SQL session (PostgreSQL's model: one backend, one
// session); a client that wants a second session opens a second
// connection.

// Request is one client request line.
type Request struct {
	// Q is the SQL statement (the sqlmini dialect, plus
	// BEGIN/COMMIT/ROLLBACK).
	Q string `json:"q"`
	// Session must be absent or 0. It is decoded only to be refused:
	// a request naming another session gets a structured error, never
	// a silent run on the connection's only session.
	Session int `json:"session,omitempty"`
}

// Response is one server response line.
type Response struct {
	// Status reports the outcome of a successful request: "BEGIN",
	// "COMMIT", "ROLLBACK" or "OK".
	Status string `json:"status,omitempty"`
	// Rows carries a SELECT's result rows: integers as JSON numbers,
	// strings as JSON strings.
	Rows [][]any `json:"rows,omitempty"`
	// Affected is the row count of a successful UPDATE/INSERT/DELETE.
	Affected int `json:"affected,omitempty"`
	// Err is the error message of a failed request.
	Err string `json:"error,omitempty"`
	// Abort is the core.ClassifyAbort class name of Err
	// ("serialization", "deadline", "overload", ...).
	Abort string `json:"abort,omitempty"`
	// Retriable marks transient failures (core.IsRetriable): abort the
	// transaction, back off, rerun.
	Retriable bool `json:"retriable,omitempty"`
	// InTx reports whether the session still holds an open transaction
	// after this request (a failed statement poisons but does not close
	// an explicit transaction — the client must ROLLBACK).
	InTx bool `json:"in_tx,omitempty"`
	// Notice carries out-of-band server messages: the drain
	// notification, the idle-timeout close, the overload shed.
	Notice string `json:"notice,omitempty"`
	// Final marks the connection's last response: the server closes the
	// connection after writing it (shed, protocol failure, idle
	// timeout).
	Final bool `json:"final,omitempty"`
}

// DecodeRequest parses one request line. It never panics on arbitrary
// bytes (FuzzServerProtocol pins that down) and rejects a request that
// names a session other than the connection's own.
func DecodeRequest(line []byte) (Request, error) {
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		return Request{}, fmt.Errorf("server: bad request: %w", err)
	}
	if req.Session != 0 {
		return Request{}, fmt.Errorf("server: session %d: a connection is one session, open another connection for another session", req.Session)
	}
	if strings.TrimSpace(req.Q) == "" {
		return Request{}, fmt.Errorf("server: empty statement")
	}
	return req, nil
}

// EncodeResponse renders one response line, newline included. Response
// values are JSON-safe by construction (int64 and string row values),
// so encoding cannot fail.
func EncodeResponse(r Response) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		// Unreachable with well-formed Rows; keep the wire alive anyway.
		b, _ = json.Marshal(Response{Err: "server: response encoding failed", Abort: core.AbortOther.String()})
	}
	return append(b, '\n')
}

// errResponse builds the structured error reply for err, carrying the
// abort taxonomy class and the retriable flag the client's retry
// discipline keys on.
func errResponse(err error, inTx bool) Response {
	return Response{
		Err:       err.Error(),
		Abort:     core.ClassifyAbort(err).String(),
		Retriable: core.IsRetriable(err),
		InTx:      inTx,
	}
}
