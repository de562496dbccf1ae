package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"sicost/internal/core"
)

// refResponse is Response as the server encoded it before
// AppendResponse: rows boxed into [][]any, the struct handed to
// encoding/json. It stays here as the reference the hand-written encoder
// must match byte for byte.
type refResponse struct {
	Status    string  `json:"status,omitempty"`
	Rows      [][]any `json:"rows,omitempty"`
	Affected  int     `json:"affected,omitempty"`
	Err       string  `json:"error,omitempty"`
	Abort     string  `json:"abort,omitempty"`
	Retriable bool    `json:"retriable,omitempty"`
	InTx      bool    `json:"in_tx,omitempty"`
	Notice    string  `json:"notice,omitempty"`
	Final     bool    `json:"final,omitempty"`
}

func refEncodeResponse(t testing.TB, r Response) []byte {
	t.Helper()
	ref := refResponse{Status: r.Status, Affected: r.Affected, Err: r.Err, Abort: r.Abort,
		Retriable: r.Retriable, InTx: r.InTx, Notice: r.Notice, Final: r.Final}
	if r.Rows != nil {
		ref.Rows = make([][]any, len(r.Rows))
		for i, row := range r.Rows {
			vals := make([]any, len(row))
			for j, v := range row {
				if v.K == core.KindInt {
					vals[j] = v.Int64()
				} else {
					vals[j] = v.String()
				}
			}
			ref.Rows[i] = vals
		}
	}
	b, err := json.Marshal(ref)
	if err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	return append(b, '\n')
}

// refDecodeRequest is DecodeRequest without the recognizer: every line
// through json.Unmarshal.
func refDecodeRequest(line []byte) (Request, error) {
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

// checkDecodeAgainstRef holds DecodeRequest to the reference on one
// line: the same request, and an error (with the same text) exactly when
// the reference has one.
func checkDecodeAgainstRef(t testing.TB, line []byte) {
	t.Helper()
	got, gotErr := DecodeRequest(line)
	want, wantErr := refDecodeRequest(line)
	if got != want {
		t.Fatalf("DecodeRequest(%q) = %+v, reference %+v", line, got, want)
	}
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("DecodeRequest(%q): error %v, reference %v", line, gotErr, wantErr)
	}
}

// nastyStrings covers every class of byte the string encoder treats
// differently from a plain copy.
var nastyStrings = []string{
	"OK", "plain ASCII with spaces ~ and {braces}", `say "hi"`, `back\slash`, "a<b>c&d",
	"tab\there", "nul\x00byte", "bell\x07", "del\x7f", "line\nbreak\r", "sep\u2028and\u2029",
	"café 世界 \U0001f600", "bad\xff\xfeutf8", "\xc3", "'quoted'", " ",
}

func TestAppendResponseMatchesJSON(t *testing.T) {
	check := func(r Response) {
		t.Helper()
		want := refEncodeResponse(t, r)
		if got := EncodeResponse(r); string(got) != string(want) {
			t.Fatalf("EncodeResponse(%+v)\n got %s\nwant %s", r, got, want)
		}
		// Appending leaves what the buffer held alone.
		if got := AppendResponse([]byte("prefix{"), r); string(got) != "prefix{"+string(want) {
			t.Fatalf("AppendResponse after a prefix: %s", got)
		}
		var back Response
		if err := json.Unmarshal(want, &back); err != nil {
			t.Fatalf("response line %s does not decode: %v", want, err)
		}
	}

	// Every combination of present and absent fields.
	rows := Rows{{core.Int(7)}}
	for mask := 0; mask < 1<<9; mask++ {
		var r Response
		for bit, set := range []func(){
			func() { r.Status = "OK" },
			func() { r.Rows = rows },
			func() { r.Affected = 1 },
			func() { r.Err = "engine: serialization failure" },
			func() { r.Abort = "serialization" },
			func() { r.Retriable = true },
			func() { r.InTx = true },
			func() { r.Notice = "draining" },
			func() { r.Final = true },
		} {
			if mask&(1<<bit) != 0 {
				set()
			}
		}
		check(r)
	}

	for _, s := range nastyStrings {
		check(Response{Status: s})
		check(Response{Err: s, Abort: s, Notice: s, InTx: true})
		check(Response{Status: "OK", Rows: Rows{{core.Str(s), core.Int(1)}}})
	}
	for _, n := range []int64{0, 1, -1, 42, -42, math.MaxInt64, math.MinInt64, 1e18, -1e18, 9007199254740993} {
		check(Response{Status: "OK", Rows: Rows{{core.Int(n)}}})
		check(Response{Status: "OK", Affected: int(n)})
	}
	for _, rs := range []Rows{
		nil, {}, {{}}, {nil}, {{}, {}},
		{{core.Int(1), core.Int(2), core.Int(3)}},
		{{core.Int(1)}, {core.Int(2)}, {core.Int(3)}},
		{{core.Int(-5), core.Str("alice"), core.Null()}, {core.Str(""), core.Int(0)}},
		{{core.Value{K: core.Kind(9), I: 3, S: "x"}}},
	} {
		check(Response{Status: "OK", Rows: rs, InTx: true})
	}
}

// What Rows.UnmarshalJSON gives a client: integers exactly, strings as
// the text on the wire.
func TestRowsDecode(t *testing.T) {
	in := Response{Status: "OK", Rows: Rows{{core.Int(math.MaxInt64), core.Int(-3)}, {core.Int(9007199254740993)}}}
	var back Response
	if err := json.Unmarshal(EncodeResponse(in), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != 2 || back.Rows[0][0] != in.Rows[0][0] || back.Rows[0][1] != in.Rows[0][1] || back.Rows[1][0] != in.Rows[1][0] {
		t.Fatalf("rows came back as %v, sent %v", back.Rows, in.Rows)
	}
	if err := json.Unmarshal([]byte(`{"rows":[["a",2]]}`), &back); err != nil || back.Rows[0][0] != core.Str("a") || back.Rows[0][1] != core.Int(2) {
		t.Fatalf("mixed row -> %v, %v", back.Rows, err)
	}
	for _, bad := range []string{`{"rows":[[1.5]]}`, `{"rows":[[true]]}`, `{"rows":[[null]]}`, `{"rows":[1]}`, `{"rows":[[1e30]]}`} {
		if err := json.Unmarshal([]byte(bad), &back); err == nil {
			t.Errorf("%s decoded: %v", bad, back.Rows)
		}
	}
}

func TestDecodeRequestMatchesJSON(t *testing.T) {
	for _, line := range []string{
		// The recognizer's shape, and its edges.
		`{"q":"SELECT Balance FROM Checking WHERE CustomerId = 1"}`,
		`{"q":"SELECT CustomerId FROM Account WHERE Name = 'cust-0000017'"}`,
		`{"q":"BEGIN"}`, `{"q":""}`, `{"q":" "}`, `{"q":"}`, `{"q":"a"}"}`, `{"q":"a"}{"q":"b"}`,
		`{"q":"a\"}`, `{"q":"a\\"}`, `{"q":"a\nb"}`, `{"q":"aA"}`, "{\"q\":\"tab\there\"}", "{\"q\":\"nul\x00\"}",
		"{\"q\":\"del\x7f\"}", "{\"q\":\"caf\xc3\xa9\"}", "{\"q\":\"bad\xff\"}", `{"q":"a<b>&"}`,
		// Everything else is encoding/json's.
		`{"q":"a"} `, ` {"q":"a"}`, `{"q": "a"}`, `{ "q":"a"}`, `{"q":"a" }`, "{\"q\":\"a\"}\n",
		`{"Q":"upper-case key"}`, `{"q":"a","q":"b"}`, `{"q":"a","x":1}`, `{"q":"a","session":0}`,
		`{"q":"a","session":3}`, `{"session":-1,"q":"a"}`, `{"q":1}`, `{"q":null}`, `{"q":["a"]}`,
		`{}`, `[]`, `null`, `true`, `"q"`, ``, `{`, `{"q"`, `{"q":`, `{"q":"`, `not json`, "\x00\x00",
	} {
		checkDecodeAgainstRef(t, []byte(line))
	}
	// The request owns its statement: the line's buffer is the
	// scanner's and is overwritten by the next read.
	line := []byte(`{"q":"SELECT 1"}`)
	req, err := DecodeRequest(line)
	if err != nil {
		t.Fatal(err)
	}
	copy(line, `{"q":"XXXXXXXX"}`)
	if req.Q != "SELECT 1" {
		t.Fatalf("request aliases the line buffer: %q", req.Q)
	}
}

// BEGIN, COMMIT and ROLLBACK are matched in any case, with any space
// around them and around one optional semicolon — the spacing a SELECT
// is accepted with — and nothing looser.
func TestTransactionKeywords(t *testing.T) {
	db := newBankDB(t, 4)
	defer db.Close()
	sess := NewSession(db, SessionConfig{})
	defer sess.Close()

	for _, kw := range []string{"BEGIN", "COMMIT", "ROLLBACK"} {
		mixed := kw[:1] + strings.ToLower(kw[1:3]) + kw[3:]
		for _, form := range []string{"%s", "%s;", "%s ;", " %s ; ", "\t%s\n;\r\n", "  %s  "} {
			for _, word := range []string{kw, strings.ToLower(kw), mixed} {
				if kw != "BEGIN" {
					if r := sess.Execute("BEGIN"); r.Err != "" {
						t.Fatal(r.Err)
					}
				}
				q := fmt.Sprintf(form, word)
				r := sess.Execute(q)
				if r.Err != "" || r.Status != kw || r.InTx != (kw == "BEGIN") {
					t.Errorf("Execute(%q) = %+v, want status %s", q, r, kw)
				}
				sess.Execute("ROLLBACK")
			}
		}
	}
	for _, q := range []string{"BEGINX", "BEGIN;;", "BEGIN ; ;", ";BEGIN", "BEGIN COMMIT", "BEG IN", "COMMIT;ROLLBACK", "ROLLBACK", "BEGİN", "ROLLBAC\u212a"} {
		r := sess.Execute(q)
		if r.Err == "" || r.InTx || !strings.HasPrefix(r.Err, "sqlmini:") {
			t.Errorf("Execute(%q) = %+v, want a parse error", q, r)
			sess.Execute("ROLLBACK")
		}
	}
	// The same spacing on a statement, for the symmetry the fix restores.
	if r := sess.Execute(" SELECT Balance FROM Checking WHERE CustomerId = 1 ; "); r.Err != "" {
		t.Errorf("spaced SELECT: %+v", r)
	}
}

// A point SELECT inside an open transaction, from request line to
// response line in a reused buffer, leaves what its caller keeps and
// little else: the statement text, the three objects of the parsed
// Stmt, the row and the slice that holds it.
func TestRequestAllocations(t *testing.T) {
	db := newBankDB(t, 20)
	defer db.Close()
	sess := NewSession(db, SessionConfig{StatementDeadline: DefaultStatementDeadline})
	defer sess.Close()
	if r := sess.Execute("BEGIN"); r.Err != "" {
		t.Fatal(r.Err)
	}
	line := []byte(`{"q":"SELECT Balance FROM Checking WHERE CustomerId = 17"}`)
	buf := make([]byte, 0, 256)
	n := testing.AllocsPerRun(200, func() {
		req, err := DecodeRequest(line)
		if err != nil {
			t.Fatal(err)
		}
		resp := sess.Execute(req.Q)
		buf = AppendResponse(buf[:0], resp)
	})
	if !strings.HasPrefix(string(buf), `{"status":"OK","rows":[[`) || !strings.HasSuffix(string(buf), "]],\"in_tx\":true}\n") {
		t.Fatalf("response line %q", buf)
	}
	if n > 7 {
		t.Errorf("one SELECT request: %v allocations, want at most 7", n)
	}
}
