package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"sicost/internal/core"
	"sicost/internal/sqlmini"
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

// Rows is a SELECT's result as the executor returned it. The server
// never boxes or copies it: AppendResponse writes the values straight
// onto the line.
type Rows []sqlmini.Row

// Response is one server response line.
type Response struct {
	// Status reports the outcome of a successful request: "BEGIN",
	// "COMMIT", "ROLLBACK" or "OK".
	Status string `json:"status,omitempty"`
	// Rows carries a SELECT's result rows: integers as JSON numbers,
	// strings as JSON strings.
	Rows Rows `json:"rows,omitempty"`
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
//
// The line every client in the tree sends — {"q":"…"} and nothing else,
// with no byte in the string that JSON would have escaped — is taken
// apart by hand; every other line, valid or not, goes through
// json.Unmarshal, so what is accepted, what is refused and with which
// message are encoding/json's decisions for both.
func DecodeRequest(line []byte) (Request, error) {
	if q, ok := plainRequest(line); ok {
		return Request{Q: string(q)}.checked()
	}
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		return Request{}, fmt.Errorf("server: bad request: %w", err)
	}
	return req.checked()
}

// checked applies the rules a well-formed request must still meet.
func (req Request) checked() (Request, error) {
	if req.Session != 0 {
		return Request{}, fmt.Errorf("server: session %d: a connection is one session, open another connection for another session", req.Session)
	}
	if strings.TrimSpace(req.Q) == "" {
		return Request{}, fmt.Errorf("server: empty statement")
	}
	return req, nil
}

// plainRequest returns the statement bytes of a line of exactly the
// form {"q":"…"} whose string holds only printable ASCII other than the
// quote and the backslash: the bytes a JSON string carries as themselves.
func plainRequest(line []byte) ([]byte, bool) {
	const head, tail = `{"q":"`, `"}`
	if len(line) < len(head)+len(tail) || string(line[:len(head)]) != head || string(line[len(line)-len(tail):]) != tail {
		return nil, false
	}
	q := line[len(head) : len(line)-len(tail)]
	for _, c := range q {
		if !verbatim(c) {
			return nil, false
		}
	}
	return q, true
}

// verbatim reports whether a JSON string carries c as itself, escaped by
// no encoder and read back unchanged by every decoder: printable ASCII
// other than the quote and the backslash.
func verbatim(c byte) bool { return 0x20 <= c && c < 0x7f && c != '"' && c != '\\' }

// EncodeResponse renders one response line, newline included, into a
// buffer of its own (sized so that a one-row result or a status fits
// without regrowing).
func EncodeResponse(r Response) []byte { return AppendResponse(make([]byte, 0, 128), r) }

// AppendResponse appends r's response line, newline included, to dst:
// the bytes json.Marshal gave the struct — fields in declaration order,
// each omitted when empty — written without reflection. Response is a
// closed set of strings, integers and flags, so encoding cannot fail.
func AppendResponse(dst []byte, r Response) []byte {
	dst = append(dst, '{')
	dst = appendStringField(dst, `"status":`, r.Status)
	if len(r.Rows) > 0 {
		dst = appendRows(appendKey(dst, `"rows":`), r.Rows)
	}
	if r.Affected != 0 {
		dst = strconv.AppendInt(appendKey(dst, `"affected":`), int64(r.Affected), 10)
	}
	dst = appendStringField(dst, `"error":`, r.Err)
	dst = appendStringField(dst, `"abort":`, r.Abort)
	dst = appendFlag(dst, `"retriable":`, r.Retriable)
	dst = appendFlag(dst, `"in_tx":`, r.InTx)
	dst = appendStringField(dst, `"notice":`, r.Notice)
	dst = appendFlag(dst, `"final":`, r.Final)
	return append(dst, '}', '\n')
}

// appendKey appends an object key (quotes and colon included), after a
// comma unless it is the object's first: every value ends in a byte
// other than '{'.
func appendKey(dst []byte, key string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	return append(dst, key...)
}

func appendStringField(dst []byte, key, v string) []byte {
	if v == "" {
		return dst
	}
	return appendString(appendKey(dst, key), v)
}

func appendFlag(dst []byte, key string, v bool) []byte {
	if !v {
		return dst
	}
	return append(appendKey(dst, key), "true"...)
}

// appendString appends s as a JSON string. Verbatim bytes are copied; a
// string holding anything encoding/json would write differently (which
// adds the HTML-sensitive <>& to the bytes that are not verbatim) is
// handed to encoding/json, so its escaping rules live there only.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !verbatim(c) || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendRows appends result rows as an array of arrays: an integer is a
// JSON number, any other value a JSON string of core.Value's String
// form.
func appendRows(dst []byte, rows Rows) []byte {
	dst = append(dst, '[')
	for i, row := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, v := range row {
			if j > 0 {
				dst = append(dst, ',')
			}
			if v.K == core.KindInt {
				dst = strconv.AppendInt(dst, v.I, 10)
			} else {
				dst = appendString(dst, v.String())
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, ']')
}

// UnmarshalJSON is the client's half of the row encoding, for whoever
// decodes a response line into a Response: a JSON number becomes an
// integer value, a JSON string a string value holding the text as sent.
func (rs *Rows) UnmarshalJSON(b []byte) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var raw [][]any
	if err := dec.Decode(&raw); err != nil {
		return err
	}
	*rs = nil
	for _, in := range raw {
		row := make(sqlmini.Row, len(in))
		for i, v := range in {
			switch v := v.(type) {
			case json.Number:
				n, err := strconv.ParseInt(string(v), 10, 64)
				if err != nil {
					return fmt.Errorf("server: row value %s is not an integer", v)
				}
				row[i] = core.Int(n)
			case string:
				row[i] = core.Str(v)
			default:
				return fmt.Errorf("server: row value %v is neither a number nor a string", v)
			}
		}
		*rs = append(*rs, row)
	}
	return nil
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
