package checker

import (
	"reflect"
	"strings"
	"testing"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/trace"
)

func kvSchema(name string) *core.Schema {
	return &core.Schema{
		Name: name,
		Columns: []core.Column{
			{Name: "K", Kind: core.KindInt, NotNull: true},
			{Name: "V", Kind: core.KindInt, NotNull: true},
		},
		PK: 0,
	}
}

func kv(k, v int64) core.Record { return core.Record{core.Int(k), core.Int(v)} }

// newDB creates an SI database with table T = {(1,0),(2,0)} and a
// recorder installed after the load.
func newDB(t *testing.T, mode core.CCMode) (*engine.DB, *trace.Recorder) {
	t.Helper()
	db := engine.Open(engine.Config{Mode: mode, Platform: core.PlatformPostgres})
	t.Cleanup(db.Close)
	if err := db.CreateTable(kvSchema("T")); err != nil {
		t.Fatal(err)
	}
	seed := db.Begin()
	for k := int64(1); k <= 2; k++ {
		if err := seed.Insert("T", kv(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	rec := trace.New(trace.Options{Shards: 1, ShardCap: 1 << 10})
	db.SetTracer(rec)
	return db, rec
}

// analyze is the whole offline check: drain the recorder, read the
// committed transactions out of the stream, build and search the MVSG.
func analyze(t *testing.T, rec *trace.Recorder) *Report {
	t.Helper()
	evs := rec.Drain()
	if n := rec.Dropped(); n != 0 {
		t.Fatalf("recorder dropped %d events", n)
	}
	return Analyze(Txns(evs))
}

func get(t *testing.T, tx *engine.Tx, k int64) int64 {
	t.Helper()
	rec, err := tx.Get("T", core.Int(k))
	if err != nil {
		t.Fatal(err)
	}
	return rec[1].Int64()
}

func set(t *testing.T, tx *engine.Tx, k, v int64) {
	t.Helper()
	if err := tx.Update("T", core.Int(k), kv(k, v)); err != nil {
		t.Fatal(err)
	}
}

func commit(t *testing.T, tx *engine.Tx) {
	t.Helper()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestSerialHistoryIsSerializable(t *testing.T) {
	db, rec := newDB(t, core.SnapshotFUW)
	for i := int64(0); i < 5; i++ {
		tx := db.Begin()
		v := get(t, tx, 1)
		set(t, tx, 1, v+1)
		commit(t, tx)
	}
	rep := analyze(t, rec)
	if !rep.Serializable {
		t.Fatalf("serial history flagged: %s", rep.Describe())
	}
	if rep.Txns != 5 {
		t.Fatalf("txns = %d", rep.Txns)
	}
	if rep.Classify() != "serializable" {
		t.Fatal("classification")
	}
	if !strings.Contains(rep.Describe(), "serializable") {
		t.Fatal("describe")
	}
}

func TestWriteSkewDetected(t *testing.T) {
	db, rec := newDB(t, core.SnapshotFUW)

	t1 := db.Begin()
	t1.SetTag("left")
	t2 := db.Begin()
	t2.SetTag("right")
	_ = get(t, t1, 1)
	_ = get(t, t1, 2)
	_ = get(t, t2, 1)
	_ = get(t, t2, 2)
	set(t, t1, 1, -1)
	set(t, t2, 2, -1)
	commit(t, t1)
	commit(t, t2)

	rep := analyze(t, rec)
	if rep.Serializable {
		t.Fatalf("write skew missed: %s", rep.Describe())
	}
	if got := rep.Classify(); got != "write skew" {
		t.Fatalf("Classify = %q", got)
	}
	desc := rep.Describe()
	for _, want := range []string{"NOT serializable", "write skew", "left", "right", "rw"} {
		if !strings.Contains(desc, want) {
			t.Fatalf("describe missing %q:\n%s", want, desc)
		}
	}
}

// TestReadOnlyAnomalyDetected reproduces Fekete/O'Neil/O'Neil (SIGMOD
// Record 2004), the anomaly SmallBank §III-C is built on: a read-only
// transaction makes an otherwise-serializable pair non-serializable.
func TestReadOnlyAnomalyDetected(t *testing.T) {
	db, rec := newDB(t, core.SnapshotFUW)

	// Row 1 is the savings account (x), row 2 checking (y); both 0.
	t1 := db.Begin() // WriteCheck: sees x+y=0 < 10, charges penalty
	t1.SetTag("WC")
	t2 := db.Begin() // TransactSaving: deposit 20 into savings
	t2.SetTag("TS")

	_ = get(t, t2, 1)
	set(t, t2, 1, 20)
	commit(t, t2)

	t3 := db.Begin() // Balance: sees TS's deposit but not WC's check
	t3.SetTag("Bal")
	if got := get(t, t3, 1); got != 20 {
		t.Fatalf("Bal sees x=%d, want 20", got)
	}
	if got := get(t, t3, 2); got != 0 {
		t.Fatalf("Bal sees y=%d, want 0", got)
	}
	commit(t, t3)

	// WC still runs on the old snapshot: total 0 < 10 => penalty.
	if x, y := get(t, t1, 1), get(t, t1, 2); x != 0 || y != 0 {
		t.Fatalf("WC snapshot = %d,%d", x, y)
	}
	set(t, t1, 2, -11)
	commit(t, t1)

	rep := analyze(t, rec)
	if rep.Serializable {
		t.Fatalf("read-only anomaly missed: %s", rep.Describe())
	}
	if got := rep.Classify(); got != "read-only anomaly" {
		t.Fatalf("Classify = %q (%s)", got, rep.Describe())
	}
	// Without the Balance transaction the same pair is serializable —
	// verify the anomaly really hinges on the read-only txn by replaying
	// just T1/T2's dependencies: the cycle must include the reader.
	onCycle := map[string]bool{}
	for _, id := range rep.Cycle {
		onCycle[rep.Tags[id]] = true
	}
	if !onCycle["Bal"] {
		t.Fatalf("cycle misses the read-only transaction: %s", rep.Describe())
	}
}

func TestWithoutReaderPairIsSerializable(t *testing.T) {
	db, rec := newDB(t, core.SnapshotFUW)

	t1 := db.Begin()
	t2 := db.Begin()
	_ = get(t, t2, 1)
	set(t, t2, 1, 20)
	commit(t, t2)
	_ = get(t, t1, 1)
	_ = get(t, t1, 2)
	set(t, t1, 2, -11)
	commit(t, t1)

	rep := analyze(t, rec)
	if !rep.Serializable {
		t.Fatalf("WC/TS without reader must be serializable (T1 before T2): %s", rep.Describe())
	}
}

func TestLostUpdatePreventionKeepsGraphAcyclic(t *testing.T) {
	db, rec := newDB(t, core.SnapshotFUW)
	t1 := db.Begin()
	t2 := db.Begin()
	_ = get(t, t1, 1)
	_ = get(t, t2, 1)
	set(t, t1, 1, 10)
	commit(t, t1)
	if err := t2.Update("T", core.Int(1), kv(1, 20)); err == nil {
		t.Fatal("FUW should have fired")
	}
	t2.Abort()
	rep := analyze(t, rec)
	if !rep.Serializable {
		t.Fatalf("aborted txn contaminated the graph: %s", rep.Describe())
	}
}

func TestWWandWRChains(t *testing.T) {
	db, rec := newDB(t, core.SnapshotFUW)
	// Three sequential writers then a reader: WW chain + WR edge.
	for i := int64(1); i <= 3; i++ {
		tx := db.Begin()
		set(t, tx, 1, i)
		commit(t, tx)
	}
	r := db.Begin()
	_ = get(t, r, 1)
	commit(t, r)

	rep := analyze(t, rec)
	ww, wr := 0, 0
	for _, d := range rep.Edges {
		switch d.Kind {
		case WW:
			ww++
		case WR:
			wr++
		}
	}
	if ww != 2 {
		t.Fatalf("ww edges = %d, want 2", ww)
	}
	if wr != 1 {
		t.Fatalf("wr edges = %d, want 1", wr)
	}
	if !rep.Serializable {
		t.Fatal("chain must be serializable")
	}
}

func TestResetSkipsForeignVersions(t *testing.T) {
	db, rec := newDB(t, core.SnapshotFUW)
	w := db.Begin()
	set(t, w, 1, 5)
	commit(t, w)
	// The reset: what was recorded so far is drained and discarded, so
	// the writer is outside the analyzed window.
	if got := Txns(rec.Drain()); len(got) != 1 {
		t.Fatalf("drained %d transactions before the reset, want the writer", len(got))
	}
	// A reader of the pre-reset version must not crash or dangle edges.
	r := db.Begin()
	_ = get(t, r, 1)
	commit(t, r)
	rep := analyze(t, rec)
	if !rep.Serializable || rep.Txns != 1 {
		t.Fatalf("post-reset analysis: %+v", rep)
	}
	for _, d := range rep.Edges {
		if d.Kind == WR {
			t.Fatal("WR edge to an unrecorded writer must be skipped")
		}
	}
}

func TestSSIKeepsHistoryAcyclicUnderWriteSkewLoad(t *testing.T) {
	db, rec := newDB(t, core.SerializableSI)
	// Fire many concurrent write-skew attempts; SSI aborts some, and
	// whatever commits must form an acyclic MVSG.
	for round := 0; round < 30; round++ {
		t1 := db.Begin()
		t2 := db.Begin()
		ok1 := txRead(t1, 1) && txRead(t1, 2) && txWrite(t1, 1, int64(round))
		ok2 := txRead(t2, 1) && txRead(t2, 2) && txWrite(t2, 2, int64(round))
		if ok1 {
			_ = t1.Commit()
		} else {
			t1.Abort()
		}
		if ok2 {
			_ = t2.Commit()
		} else {
			t2.Abort()
		}
	}
	rep := analyze(t, rec)
	if !rep.Serializable {
		t.Fatalf("SSI produced a cycle: %s", rep.Describe())
	}
}

func txRead(tx *engine.Tx, k int64) bool {
	_, err := tx.Get("T", core.Int(k))
	return err == nil
}

func txWrite(tx *engine.Tx, k, v int64) bool {
	return tx.Update("T", core.Int(k), kv(k, v)) == nil
}

// TestTxnsFromStream reads a hand-written stream: only commits survive,
// in commit order, with exactly the sets the events spell out.
func TestTxnsFromStream(t *testing.T) {
	x, y := core.Str("x"), core.Str("y")
	evs := []trace.Event{
		{Kind: trace.EvBegin, Tx: 1, CSN: 4},
		{Kind: trace.EvSnapshot, Tx: 1, CSN: 4},
		{Kind: trace.EvBegin, Tx: 2, CSN: 4},
		// t1 reads x, writes y, then reads y back: the engine emits a
		// statement-level read for the own-write read but no read-ver.
		{Kind: trace.EvRead, Tx: 1, Table: "H", Key: x},
		{Kind: trace.EvReadVer, Tx: 1, Table: "H", Key: x, CSN: 3},
		{Kind: trace.EvWrite, Tx: 1, Table: "H", Key: y},
		{Kind: trace.EvRead, Tx: 1, Table: "H", Key: y},
		// t2 reads and writes x, then aborts: dropped whole.
		{Kind: trace.EvReadVer, Tx: 2, Table: "H", Key: x, CSN: 3},
		{Kind: trace.EvWrite, Tx: 2, Table: "H", Key: x},
		{Kind: trace.EvAbort, Tx: 2, Reason: uint8(core.AbortSerialization), Tag: "loser"},
		// t3 only takes SELECT FOR UPDATE: commits with no writes.
		{Kind: trace.EvBegin, Tx: 3, CSN: 4},
		{Kind: trace.EvSFU, Tx: 3, Table: "H", Key: x},
		{Kind: trace.EvReadVer, Tx: 3, Table: "H", Key: x, CSN: 3},
		{Kind: trace.EvCommit, Tx: 3, CSN: 4, Tag: "sfu"},
		{Kind: trace.EvWALCommit, Tx: 1, Bytes: 90},
		{Kind: trace.EvWriteVer, Tx: 1, Table: "H", Key: y, CSN: 5},
		{Kind: trace.EvCommit, Tx: 1, CSN: 5, Tag: "writer"},
		// t9 was open when recording started: no begin in the stream.
		{Kind: trace.EvReadVer, Tx: 9, Table: "H", Key: y, CSN: 5},
		{Kind: trace.EvCommit, Tx: 9, CSN: 5, Tag: "late"},
		// t4 never finishes.
		{Kind: trace.EvBegin, Tx: 4, CSN: 5},
		{Kind: trace.EvReadVer, Tx: 4, Table: "H", Key: x, CSN: 3},
	}
	want := []Txn{
		{ID: 3, StartCSN: 4, CommitCSN: 4, Tag: "sfu", Reads: []Ref{{"H", x, 3}}},
		{ID: 1, StartCSN: 4, CommitCSN: 5, Tag: "writer", Reads: []Ref{{"H", x, 3}}, Writes: []Ref{{"H", y, 5}}},
		{ID: 9, StartCSN: 0, CommitCSN: 5, Tag: "late", Reads: []Ref{{"H", y, 5}}},
	}
	got := Txns(evs)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Txns:\n got %+v\nwant %+v", got, want)
	}
	rep := Analyze(got)
	if !rep.Serializable || rep.Txns != 3 || rep.Tags[9] != "late" || !rep.Writers[1] || rep.Writers[3] {
		t.Fatalf("report: %+v", rep)
	}
}

func TestDepKindString(t *testing.T) {
	if WR.String() != "wr" || WW.String() != "ww" || RW.String() != "rw" {
		t.Fatal("DepKind names changed")
	}
}
