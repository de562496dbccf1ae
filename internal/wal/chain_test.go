package wal

import (
	"testing"

	"sicost/internal/core"
)

// deltaLink encodes one complete chain link — begin marker, a rows
// batch per call, end marker — exactly as WAL.BeginDelta/
// AppendDeltaRows/EndDelta lay it out.
func deltaLink(base, cut uint64, schemas []core.Schema, batches ...[]DeltaRow) []byte {
	out := EncodeDeltaBegin(&DeltaBegin{CSN: cut, Base: base, Schemas: schemas})
	rows := uint64(0)
	for _, b := range batches {
		out = append(out, EncodeDeltaRows(&DeltaRows{CSN: cut, Rows: b})...)
		rows += uint64(len(b))
	}
	return append(out, EncodeDeltaEnd(&DeltaEnd{CSN: cut, Rows: rows})...)
}

func TestDeltaFrameRoundTrip(t *testing.T) {
	s := testSchema()
	begin := mustDecodeOne(t, EncodeDeltaBegin(&DeltaBegin{CSN: 9, Base: 5, Schemas: []core.Schema{s}}))
	if begin.DeltaBegin == nil || begin.DeltaBegin.CSN != 9 || begin.DeltaBegin.Base != 5 {
		t.Fatalf("begin round-trip: %+v", begin.DeltaBegin)
	}
	if len(begin.DeltaBegin.Schemas) != 1 || begin.DeltaBegin.Schemas[0].Name != "T" ||
		len(begin.DeltaBegin.Schemas[0].Columns) != 2 {
		t.Fatalf("embedded schema round-trip: %+v", begin.DeltaBegin.Schemas)
	}

	rows := mustDecodeOne(t, EncodeDeltaRows(&DeltaRows{CSN: 9, Rows: []DeltaRow{
		{Table: "T", Key: core.Int(1), CSN: 7, Rec: core.Record{core.Int(1), core.Str("a")}},
		{Table: "T", Key: core.Int(2)}, // tombstone: no live version at the cut
	}}))
	if rows.DeltaRows == nil || rows.DeltaRows.CSN != 9 || len(rows.DeltaRows.Rows) != 2 {
		t.Fatalf("rows round-trip: %+v", rows.DeltaRows)
	}
	if r := rows.DeltaRows.Rows[0]; r.Table != "T" || r.Key != core.Int(1) || r.CSN != 7 ||
		!r.Rec.Equal(core.Record{core.Int(1), core.Str("a")}) {
		t.Fatalf("live image round-trip: %+v", r)
	}
	if r := rows.DeltaRows.Rows[1]; r.Rec != nil || r.CSN != 0 {
		t.Fatalf("tombstone round-trip: %+v", r)
	}

	end := mustDecodeOne(t, EncodeDeltaEnd(&DeltaEnd{CSN: 9, Rows: 2}))
	if end.DeltaEnd == nil || end.DeltaEnd.CSN != 9 || end.DeltaEnd.Rows != 2 {
		t.Fatalf("end round-trip: %+v", end.DeltaEnd)
	}
}

// TestClassifyFoldsChain is the fold's happy path: a full root link plus
// two delta links reduce to one synthetic checkpoint at the tail cut —
// updates overwrite, tombstones delete, keys born in a later link
// appear — and redo starts past the tail cut.
func TestClassifyFoldsChain(t *testing.T) {
	s := testSchema()
	rec := func(k int64, v string) core.Record { return core.Record{core.Int(k), core.Str(v)} }

	var log []byte
	log = append(log, EncodeSchema(&s)...)
	// Root: full link at cut 5 with rows 1 and 2.
	log = append(log, deltaLink(0, 5, []core.Schema{s},
		[]DeltaRow{{Table: "T", Key: core.Int(1), CSN: 4, Rec: rec(1, "a")}},
		[]DeltaRow{{Table: "T", Key: core.Int(2), CSN: 5, Rec: rec(2, "b")}},
	)...)
	log = append(log, commitFrameBytes(6)...)
	log = append(log, commitFrameBytes(7)...)
	// Link 2: update row 1, tombstone row 2, new row 3.
	log = append(log, deltaLink(5, 7, []core.Schema{s}, []DeltaRow{
		{Table: "T", Key: core.Int(1), CSN: 6, Rec: rec(1, "a2")},
		{Table: "T", Key: core.Int(2)},
		{Table: "T", Key: core.Int(3), CSN: 7, Rec: rec(3, "c")},
	})...)
	log = append(log, commitFrameBytes(8)...)
	// Link 3: update row 3 again.
	log = append(log, deltaLink(7, 8, []core.Schema{s}, []DeltaRow{
		{Table: "T", Key: core.Int(3), CSN: 8, Rec: rec(3, "c2")},
	})...)
	log = append(log, commitFrameBytes(9)...)

	info := Classify(log)
	if info.TornBytes != 0 {
		t.Fatalf("clean log classified as torn: %+v", info)
	}
	if info.Checkpoint == nil || info.Checkpoint.CSN != 8 || info.ChainLinks != 3 {
		t.Fatalf("fold: checkpoint %+v, links %d; want cut 8 over 3 links", info.Checkpoint, info.ChainLinks)
	}
	if len(info.Checkpoint.Tables) != 1 {
		t.Fatalf("tables: %+v", info.Checkpoint.Tables)
	}
	rows := info.Checkpoint.Tables[0].Rows
	if len(rows) != 2 {
		t.Fatalf("folded rows: %+v, want rows 1 and 3 (row 2 tombstoned)", rows)
	}
	if rows[0].Key != core.Int(1) || rows[0].CSN != 6 || !rows[0].Rec.Equal(rec(1, "a2")) {
		t.Fatalf("row 1 after fold: %+v", rows[0])
	}
	if rows[1].Key != core.Int(3) || rows[1].CSN != 8 || !rows[1].Rec.Equal(rec(3, "c2")) {
		t.Fatalf("row 3 after fold: %+v", rows[1])
	}
	if len(info.Commits) != 1 || info.Commits[0].CSN != 9 {
		t.Fatalf("redo commits: %+v, want only CSN 9 past the tail cut", info.Commits)
	}
	if info.HighCSN != 9 {
		t.Fatalf("HighCSN = %d, want 9", info.HighCSN)
	}
}

// TestClassifyTornLastLinkFallsBack cuts the log inside the final delta
// link, at every possible byte offset: the fold must land on the chain
// state BEFORE the incomplete link — its rows must never partially
// apply — and the commits it covered become redo work again.
func TestClassifyTornLastLinkFallsBack(t *testing.T) {
	s := testSchema()
	rec := func(k int64, v string) core.Record { return core.Record{core.Int(k), core.Str(v)} }

	var log []byte
	log = append(log, EncodeSchema(&s)...)
	log = append(log, deltaLink(0, 5, []core.Schema{s}, []DeltaRow{
		{Table: "T", Key: core.Int(1), CSN: 5, Rec: rec(1, "a")},
	})...)
	log = append(log, commitFrameBytes(6)...)
	log = append(log, deltaLink(5, 6, []core.Schema{s}, []DeltaRow{
		{Table: "T", Key: core.Int(1), CSN: 6, Rec: rec(1, "a2")},
	})...)
	log = append(log, commitFrameBytes(7)...)
	prefix := len(log)
	last := deltaLink(6, 7, []core.Schema{s}, []DeltaRow{
		{Table: "T", Key: core.Int(1)}, // would tombstone row 1 if folded
		{Table: "T", Key: core.Int(2), CSN: 7, Rec: rec(2, "b")},
	})

	for cut := 0; cut < len(last); cut++ {
		info := Classify(append(log[:prefix:prefix], last[:cut]...))
		if info.Checkpoint == nil || info.Checkpoint.CSN != 6 || info.ChainLinks != 2 {
			t.Fatalf("cut %d: fold = %+v links %d, want fallback to cut 6 over 2 links",
				cut, info.Checkpoint, info.ChainLinks)
		}
		rows := info.Checkpoint.Tables[0].Rows
		if len(rows) != 1 || rows[0].Key != core.Int(1) || !rows[0].Rec.Equal(rec(1, "a2")) {
			t.Fatalf("cut %d: incomplete link partially folded: %+v", cut, rows)
		}
		if len(info.Commits) != 1 || info.Commits[0].CSN != 7 {
			t.Fatalf("cut %d: commit 7 must be redo again: %+v", cut, info.Commits)
		}
	}

	// The complete link, for contrast, folds through.
	info := Classify(append(log[:prefix:prefix], last...))
	if info.Checkpoint.CSN != 7 || info.ChainLinks != 3 {
		t.Fatalf("complete link did not fold: %+v links %d", info.Checkpoint, info.ChainLinks)
	}
	rows := info.Checkpoint.Tables[0].Rows
	if len(rows) != 1 || rows[0].Key != core.Int(2) {
		t.Fatalf("complete fold rows: %+v, want only row 2 (row 1 tombstoned)", rows)
	}
}

// TestFoldChainDropsOrphansAndRowCountMismatch pins the two discard
// rules: a delta link whose Base matches no chain tail is dropped
// whole, and an end marker whose row count disagrees with the streamed
// batches invalidates the link (a lost rows batch must not fold as a
// shorter link).
func TestFoldChainDropsOrphansAndRowCountMismatch(t *testing.T) {
	s := testSchema()
	root := deltaLink(0, 5, []core.Schema{s}, []DeltaRow{
		{Table: "T", Key: core.Int(1), CSN: 5, Rec: core.Record{core.Int(1), core.Str("a")}},
	})

	// Orphan: base 99 matches nothing.
	orphan := append(append([]byte(nil), root...),
		deltaLink(99, 120, []core.Schema{s}, []DeltaRow{{Table: "T", Key: core.Int(1)}})...)
	info := Classify(orphan)
	if info.Checkpoint.CSN != 5 || info.ChainLinks != 1 {
		t.Fatalf("orphan link folded: %+v links %d", info.Checkpoint, info.ChainLinks)
	}

	// Row-count mismatch: end claims 2 rows, only 1 streamed.
	bad := append(append([]byte(nil), root...),
		EncodeDeltaBegin(&DeltaBegin{CSN: 8, Base: 5, Schemas: []core.Schema{s}})...)
	bad = append(bad, EncodeDeltaRows(&DeltaRows{CSN: 8, Rows: []DeltaRow{{Table: "T", Key: core.Int(1)}}})...)
	bad = append(bad, EncodeDeltaEnd(&DeltaEnd{CSN: 8, Rows: 2})...)
	info = Classify(bad)
	if info.Checkpoint.CSN != 5 || info.ChainLinks != 1 {
		t.Fatalf("count-mismatched link folded: %+v links %d", info.Checkpoint, info.ChainLinks)
	}
	if len(info.Checkpoint.Tables[0].Rows) != 1 {
		t.Fatalf("mismatched link's tombstone applied: %+v", info.Checkpoint.Tables[0].Rows)
	}
}

// TestFoldChainIgnoresRetiredCheckpointRoot pins the end of upgrade
// compatibility: the full-image checkpoint frame no longer roots a
// chain. A stream whose only "root" is such a record holds no
// checkpoint at all — the record ends the valid prefix, and recovery
// replays every commit in front of it from the schema frame up.
func TestFoldChainIgnoresRetiredCheckpointRoot(t *testing.T) {
	s := testSchema()
	var log []byte
	log = append(log, EncodeSchema(&s)...)
	log = append(log, commitFrameBytes(1)...)
	log = append(log, commitFrameBytes(2)...)
	clean := len(log)
	log = append(log, retiredCheckpointFrame(2)...)
	// A delta link based on the retired record's cut is unreachable, and
	// would be an orphan even if it were not.
	log = append(log, deltaLink(2, 3, []core.Schema{s}, []DeltaRow{{Table: "T", Key: core.Int(1)}})...)

	info := Classify(log)
	if info.Checkpoint != nil || info.ChainLinks != 0 {
		t.Fatalf("retired checkpoint record rooted a chain: %+v links %d", info.Checkpoint, info.ChainLinks)
	}
	if info.ValidBytes != clean || len(info.Commits) != 2 || info.HighCSN != 2 {
		t.Fatalf("full redo expected in front of the record: %+v", info)
	}
	if len(info.Schemas) != 1 || info.Schemas[0].Name != "T" {
		t.Fatalf("schema frame not recovered: %+v", info.Schemas)
	}

	// An orphan delta link in a stream with no root at all folds nothing.
	if cp, n := foldChain([]Frame{
		{DeltaBegin: &DeltaBegin{CSN: 3, Base: 2}},
		{DeltaEnd: &DeltaEnd{CSN: 3}},
	}); cp != nil || n != 0 {
		t.Fatalf("rootless delta link folded: %+v, %d links", cp, n)
	}
}
