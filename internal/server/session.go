package server

import (
	"strings"
	"time"

	"sicost/internal/engine"
	"sicost/internal/sqlmini"
)

// SessionConfig parameterizes one SQL session.
type SessionConfig struct {
	// StatementDeadline, when positive, bounds every statement: each
	// dispatch re-arms the open transaction's Tx.SetDeadline to now +
	// StatementDeadline (auto-commit transactions are stamped the same
	// way through the sqlmini tx-init hook). Expiry fails the statement
	// with core.ErrTxDeadline and poisons the transaction.
	StatementDeadline time.Duration
}

// Session is one SQL session: the transport-independent execution layer
// shared by the TCP server (one per connection) and cmd/sisql (the
// in-process shell), so the two cannot diverge on parse, execution or
// abort classification. Like engine.Tx it is a single-goroutine handle;
// the owner must Close it when the transport goes away, which rolls
// back any open transaction.
type Session struct {
	sql *sqlmini.Session
	cfg SessionConfig
}

// NewSession opens a session on db.
func NewSession(db *engine.DB, cfg SessionConfig) *Session {
	s := &Session{sql: sqlmini.NewSession(db), cfg: cfg}
	if cfg.StatementDeadline > 0 {
		s.sql.SetTxInit(func(tx *engine.Tx) {
			tx.SetDeadline(time.Now().Add(cfg.StatementDeadline))
		})
	}
	return s
}

// InTx reports whether the session holds an open transaction.
func (s *Session) InTx() bool { return s.sql.Tx() != nil }

// Tx exposes the open transaction (nil outside one), for tagging.
func (s *Session) Tx() *engine.Tx { return s.sql.Tx() }

// Execute runs one line — BEGIN/COMMIT/ROLLBACK or a sqlmini statement
// — and returns the structured response. Errors never close the
// session: a failed statement inside an explicit transaction leaves the
// (poisoned) transaction open, exactly like PostgreSQL's "current
// transaction is aborted" state, and the response's InTx field says so.
func (s *Session) Execute(q string) Response {
	// Per-statement budget: re-arm the open transaction's deadline so a
	// long transaction gets StatementDeadline per statement — COMMIT
	// included — not in total. (Auto-commit statements are stamped by
	// the tx-init hook instead.) Without the re-arm, the client's think
	// time between statements would count against the transaction.
	if tx := s.sql.Tx(); tx != nil && s.cfg.StatementDeadline > 0 {
		tx.SetDeadline(time.Now().Add(s.cfg.StatementDeadline))
	}

	switch kw := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(q), ";")); {
	case isKeyword(kw, "BEGIN"):
		if err := s.sql.Begin(); err != nil {
			return errResponse(err, s.InTx())
		}
		return Response{Status: "BEGIN", InTx: true}
	case isKeyword(kw, "COMMIT"):
		if err := s.sql.Commit(); err != nil {
			return errResponse(err, s.InTx())
		}
		return Response{Status: "COMMIT"}
	case isKeyword(kw, "ROLLBACK"):
		s.sql.Rollback()
		return Response{Status: "ROLLBACK"}
	}

	stmt, err := sqlmini.Parse(q)
	if err != nil {
		return errResponse(err, s.InTx())
	}
	if stmt.Kind == sqlmini.StmtSelect {
		rows, err := s.sql.Query(stmt, nil)
		if err != nil {
			return errResponse(err, s.InTx())
		}
		return Response{Status: "OK", Rows: rows, InTx: s.InTx()}
	}
	n, err := s.sql.Exec(stmt, nil)
	if err != nil {
		return errResponse(err, s.InTx())
	}
	return Response{Status: "OK", Affected: n, InTx: s.InTx()}
}

// isKeyword matches a transaction-control line against kw in any case,
// without an upper-cased copy. The length test keeps the match to ASCII:
// EqualFold alone also folds the three-byte Kelvin sign onto K.
func isKeyword(line, kw string) bool {
	return len(line) == len(kw) && strings.EqualFold(line, kw)
}

// Close ends the session, rolling back any open transaction — the
// disconnect-safety guarantee: locks, the pinned snapshot and the
// engine's admission slot are released no matter how the transport
// died. It reports whether a transaction was open (the
// aborted-on-disconnect counter).
func (s *Session) Close() (hadTx bool) {
	if s.sql.Tx() == nil {
		return false
	}
	s.sql.Rollback()
	return true
}
