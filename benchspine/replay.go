package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/server"
	"sicost/internal/smallbank"
	"sicost/internal/sqlmini"
	"sicost/internal/storage"
	"sicost/internal/wal"
)

// replay is the second half of the traced pass: the workload's seeded
// transaction stream, single-threaded, through in-process replicas
// opened with the workload's engine configuration, one public call at a
// time. The same statement goes to up to three replicas, each entered
// one layer deeper —
//
//	server:  DecodeRequest, Session.Execute, EncodeResponse   (wire-* only)
//	sqlmini: Parse, Session.Query/Exec on the parsed statement (wire-* only)
//	engine:  DB.Begin, Tx.Get/Update, Tx.Commit
//
// — which all hold the same state, so a layer's self time is the
// difference of two separately replayed calls on the same statement;
// such figures are labelled derived. Beside them a private lock table
// takes the uncontended Acquire+Release of every written row, and for
// embed-durable a private segment log takes wal.EncodeCommit of the
// same after-images followed by Append+Sync.
type replay struct {
	spec *workloadSpec
	tr   *tracer

	srv     *embedded
	srvSess *server.Session
	sql     *embedded
	sqlSess *sqlmini.Session
	eng     *embedded
	tx      *engine.Tx
	images  []wal.RowImage

	locks     *storage.LockTable
	frames    *wal.SegmentLog
	framesDir string

	// derived holds self times computed as differences (ns).
	derived map[string][]int64
	// explained holds, per transaction, the time the replay can
	// attribute: every server-side and client-side call of its
	// statements for wire-*, every engine call for embed-*.
	explained []int64
	stmts     int

	trace, root uint32
	sum         int64
	line        []byte
}

func newReplay(spec *workloadSpec, seed int64, walRoot string) (*replay, error) {
	r := &replay{spec: spec, tr: newTracer(15, time.Now(), 1<<16), derived: map[string][]int64{},
		locks: storage.NewLockTable()}
	var err error
	if r.eng, err = openEmbedded(spec, seed, walRoot); err != nil {
		return nil, err
	}
	if spec.Wire {
		if r.srv, err = openEmbedded(spec, seed, walRoot); err == nil {
			r.sql, err = openEmbedded(spec, seed, walRoot)
		}
		if err != nil {
			r.close()
			return nil, err
		}
		r.srvSess = server.NewSession(r.srv.db, server.SessionConfig{StatementDeadline: server.DefaultStatementDeadline})
		r.sqlSess = sqlmini.NewSession(r.sql.db)
	}
	if spec.Durable {
		if r.framesDir, err = os.MkdirTemp(walRoot, "frames-"); err == nil {
			r.frames, err = wal.OpenSegmentLog(r.framesDir, walSegmentBytes)
		}
		if err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *replay) close() {
	for _, e := range []*embedded{r.srv, r.sql, r.eng} {
		if e != nil {
			e.close()
		}
	}
	if r.frames != nil {
		r.frames.Close()
	}
	if r.framesDir != "" {
		os.RemoveAll(r.framesDir)
	}
}

// run replays client 0's stream until budget is spent or maxTxns ran.
func (r *replay) run(seed int64, budget time.Duration, maxTxns int) error {
	gen := newGenerator(seed, 0, r.spec.BalanceOnly)
	prog := program{matAll: r.spec.MatAll, exec: r.exec, book: ledger{}}
	deadline := time.Now().Add(budget)
	for n := 0; n < maxTxns && time.Now().Before(deadline); n++ {
		in := gen.next()
		r.trace, r.sum = uint32(1<<20+n), 0
		root := r.tr.open(r.trace, 0, "bench", "txn.replay")
		r.root = r.tr.id(root)
		out, err := prog.run(in)
		if err != nil || out == failed {
			return fmt.Errorf("replay: transaction %d (%s): %v", n, in.typ, err)
		}
		r.explained = append(r.explained, r.sum)
		if err := r.probeIndex(in.c1); err != nil {
			return err
		}
		r.tr.close(root)
	}
	return nil
}

func (r *replay) span(layer, name string, start, end int64) int64 {
	r.tr.add(r.trace, r.root, layer, name, start, end)
	return end - start
}

// exec sends one statement down every depth and checks they agree.
func (r *replay) exec(s *stmt) (int64, error) {
	r.stmts++
	val, engNS, err := r.engineDepth(s)
	if err != nil {
		return 0, err
	}
	if !r.spec.Wire {
		r.sum += engNS
		return val, nil
	}
	sqlVal, parseNS, sqlNS, err := r.sqlDepth(s)
	if err != nil {
		return 0, err
	}
	srvVal, execNS, err := r.serverDepth(s)
	if err != nil {
		return 0, err
	}
	if sqlVal != val || srvVal != val {
		return 0, fmt.Errorf("replay: %s: server read %d, sqlmini %d, engine %d", s.sql, srvVal, sqlVal, val)
	}
	if s.kind == kSelect || s.kind == kUpdate {
		r.derived["server.self_ns"] = append(r.derived["server.self_ns"], execNS-parseNS-sqlNS)
		r.derived["sqlmini.self_ns"] = append(r.derived["sqlmini.self_ns"], sqlNS-engNS)
	}
	return val, nil
}

// serverDepth is what sisqld's connection loop does with one request
// line, between the socket read and the socket write.
func (r *replay) serverDepth(s *stmt) (val, execNS int64, err error) {
	t0 := r.tr.now()
	r.line = append(append(append(r.line[:0], `{"q":"`...), s.sql...), `"}`...)
	t1 := r.tr.now()
	req, err := server.DecodeRequest(r.line)
	t2 := r.tr.now()
	if err != nil {
		return 0, 0, err
	}
	resp := r.srvSess.Execute(req.Q)
	t3 := r.tr.now()
	out := server.EncodeResponse(resp)
	t4 := r.tr.now()
	var back wireResponse
	err = json.Unmarshal(out, &back)
	t5 := r.tr.now()
	r.span("bench", "encode", t0, t1)
	r.span("server", "decode", t1, t2)
	execNS = r.span("server", "execute", t2, t3)
	r.span("server", "encode", t3, t4)
	r.span("bench", "decode", t4, t5)
	r.sum += t5 - t0
	if err != nil {
		return 0, 0, err
	}
	if back.Err != "" {
		return 0, 0, &stmtError{msg: back.Err, retriable: back.Retriable, inTx: back.InTx}
	}
	if s.kind == kSelect {
		if len(back.Rows) != 1 || len(back.Rows[0]) != 1 {
			return 0, 0, fmt.Errorf("replay: %s: want one value, got %v", s.sql, back.Rows)
		}
		val = back.Rows[0][0]
	}
	return val, execNS, nil
}

// sqlDepth is what server.Session.Execute does with one statement:
// parse it, then run the parsed form; it returns both times.
func (r *replay) sqlDepth(s *stmt) (val, parseNS, execNS int64, err error) {
	t0 := r.tr.now()
	switch s.kind {
	case kBegin:
		err = r.sqlSess.Begin()
		return 0, 0, r.span("sqlmini", "begin", t0, r.tr.now()), err
	case kCommit:
		err = r.sqlSess.Commit()
		return 0, 0, r.span("sqlmini", "commit", t0, r.tr.now()), err
	case kRollback:
		r.sqlSess.Rollback()
		return 0, 0, r.span("sqlmini", "rollback", t0, r.tr.now()), nil
	}
	parsed, err := sqlmini.Parse(s.sql)
	t1 := r.tr.now()
	if err != nil {
		return 0, 0, 0, err
	}
	parseNS = r.span("sqlmini", "parse", t0, t1)
	if s.kind == kSelect {
		rows, err := r.sqlSess.Query(parsed, nil)
		t2 := r.tr.now()
		if err != nil {
			return 0, 0, 0, err
		}
		return rows[0][0].Int64(), parseNS, r.span("sqlmini", "exec_select", t1, t2), nil
	}
	_, err = r.sqlSess.Exec(parsed, nil)
	return 0, parseNS, r.span("sqlmini", "exec_update", t1, r.tr.now()), err
}

// engineDepth is what sqlmini's executor does with one parsed
// statement: the engine calls, each timed on its own.
func (r *replay) engineDepth(s *stmt) (val, ns int64, err error) {
	switch s.kind {
	case kBegin:
		t0 := r.tr.now()
		r.tx = r.eng.db.Begin()
		r.images = r.images[:0]
		return 0, r.span("engine", "begin", t0, r.tr.now()), nil

	case kRollback:
		t0 := r.tr.now()
		r.tx.Abort()
		return 0, r.span("engine", "abort", t0, r.tr.now()), nil

	case kCommit:
		name := "commit_rw"
		if r.tx.ReadOnly() {
			name = "commit_ro"
		}
		t0 := r.tr.now()
		err = r.tx.Commit()
		ns = r.span("engine", name, t0, r.tr.now())
		if err == nil && r.frames != nil && len(r.images) > 0 {
			err = r.logFrame()
		}
		return 0, ns, err

	case kSelect:
		t0 := r.tr.now()
		rec, err := r.tx.Get(s.table, s.key)
		t1 := r.tr.now()
		if err != nil {
			return 0, 0, err
		}
		return rec[1].Int64(), r.span("engine", "get", t0, t1), nil
	}

	// kUpdate: sqlmini fetches the row, evaluates SET, writes it back.
	t0 := r.tr.now()
	rec, err := r.tx.Get(s.table, s.key)
	t1 := r.tr.now()
	if err != nil {
		return 0, 0, err
	}
	after := core.Record{rec[0], core.Int(rec[1].Int64() + s.add)}
	if s.zero {
		after[1] = core.Int(0)
	}
	t2 := r.tr.now()
	err = r.tx.Update(s.table, s.key, after)
	t3 := r.tr.now()
	if err != nil {
		return 0, 0, err
	}
	ns = r.span("engine", "get", t0, t1) + r.span("engine", "update", t2, t3)
	r.images = append(r.images, wal.RowImage{Table: s.table, Key: s.key, Rec: after})

	key := storage.LockKey{Table: s.table, Key: s.key}
	t4 := r.tr.now()
	err = r.locks.Acquire(uint64(r.trace), key, storage.Exclusive)
	r.locks.Release(uint64(r.trace), key)
	r.span("storage", "lock_cycle", t4, r.tr.now())
	return 0, ns, err
}

// logFrame is the log's share of a durable commit, on a private device:
// encode the transaction's after-images, append the frame, sync.
func (r *replay) logFrame() error {
	t0 := r.tr.now()
	frame := wal.EncodeCommit(&wal.CommitFrame{TxID: r.tx.ID(), CSN: r.tx.CommitCSN(), Rows: r.images})
	t1 := r.tr.now()
	err := r.frames.Append(frame)
	if err == nil {
		err = r.frames.Sync()
	}
	t2 := r.tr.now()
	r.span("wal", "encode", t0, t1)
	r.span("wal", "append_sync", t1, t2)
	return err
}

// probeIndex times Tx.GetByIndex, the unique-index read path. No
// SmallBank statement takes it (Account is keyed by Name), so it runs
// in a read-only transaction of its own and is not part of the budget.
func (r *replay) probeIndex(cust int) error {
	tx := r.eng.db.Begin()
	t0 := r.tr.now()
	_, err := tx.GetByIndex(smallbank.TableAccount, "CustomerID", core.Int(int64(cust)))
	r.span("engine", "get_by_index", t0, r.tr.now())
	if err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}
