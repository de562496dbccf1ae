package wal

import (
	"bytes"
	"testing"

	"sicost/internal/core"
)

// ckptFrames encodes one complete checkpoint — begin marker, a rows
// batch per call, end marker — exactly as WAL.BeginCkpt/AppendCkptRows/
// EndCkpt lay it out.
func ckptFrames(cut uint64, schemas []core.Schema, batches ...[]CkptRow) []byte {
	out := EncodeCkptBegin(&CkptBegin{CSN: cut, Schemas: schemas})
	rows := uint64(0)
	for _, b := range batches {
		out = append(out, EncodeCkptRows(&CkptRows{CSN: cut, Rows: b})...)
		rows += uint64(len(b))
	}
	return append(out, EncodeCkptEnd(&CkptEnd{CSN: cut, Rows: rows})...)
}

// encodeCkptRowsByAppend is the rows-batch encoding as it was before the
// frame was sized first and built in place: the payload grown by
// append, then copied behind its header by frame.
func encodeCkptRowsByAppend(d *CkptRows) []byte {
	p := []byte{frameCkptRows}
	p = appendU64(p, d.CSN)
	p = appendU32(p, uint32(len(d.Rows)))
	for _, r := range d.Rows {
		p = appendStr(p, r.Table)
		p = appendValue(p, r.Key)
		p = appendU64(p, r.CSN)
		p = appendRecord(p, r.Rec)
	}
	return frame(p)
}

// TestCkptFrameRoundTrip: each checkpoint frame decodes to what was
// encoded, and a rows batch, built in one buffer of its exact size, is
// byte for byte the frame the append-grown encoder wrote.
func TestCkptFrameRoundTrip(t *testing.T) {
	s := testSchema()
	begin := mustDecodeOne(t, EncodeCkptBegin(&CkptBegin{CSN: 9, Schemas: []core.Schema{s}}))
	if begin.CkptBegin == nil || begin.CkptBegin.CSN != 9 {
		t.Fatalf("begin round-trip: %+v", begin.CkptBegin)
	}
	if len(begin.CkptBegin.Schemas) != 1 || begin.CkptBegin.Schemas[0].Name != "T" ||
		len(begin.CkptBegin.Schemas[0].Columns) != 2 {
		t.Fatalf("embedded schema round-trip: %+v", begin.CkptBegin.Schemas)
	}

	batch := &CkptRows{CSN: 9, Rows: []CkptRow{
		{Table: "T", Key: core.Int(1), CSN: 7, Rec: core.Record{core.Int(1), core.Str("a")}},
		{Table: "T", Key: core.Int(2), CSN: 9, Rec: core.Record{core.Int(2), core.Null()}},
		{Table: "Account", Key: core.Str("cust-3"), CSN: 4, Rec: core.Record{}},
	}}
	enc := EncodeCkptRows(batch)
	if want := encodeCkptRowsByAppend(batch); !bytes.Equal(enc, want) {
		t.Fatalf("rows frame\n got %x\nwant %x", enc, want)
	}
	if len(enc) != cap(enc) {
		t.Fatalf("rows frame: %d bytes in a buffer of %d", len(enc), cap(enc))
	}
	if n := testing.AllocsPerRun(100, func() { EncodeCkptRows(batch) }); n != 1 {
		t.Fatalf("%v allocations per rows frame, want 1", n)
	}
	rows := mustDecodeOne(t, enc)
	if rows.CkptRows == nil || rows.CkptRows.CSN != 9 || len(rows.CkptRows.Rows) != 3 {
		t.Fatalf("rows round-trip: %+v", rows.CkptRows)
	}
	if r := rows.CkptRows.Rows[0]; r.Table != "T" || r.Key != core.Int(1) || r.CSN != 7 ||
		!r.Rec.Equal(core.Record{core.Int(1), core.Str("a")}) {
		t.Fatalf("row round-trip: %+v", r)
	}
	if r := rows.CkptRows.Rows[1]; r.CSN != 9 || !r.Rec.Equal(core.Record{core.Int(2), core.Null()}) {
		t.Fatalf("row with a NULL round-trip: %+v", r)
	}
	if r := rows.CkptRows.Rows[2]; r.Key != core.Str("cust-3") || r.CSN != 4 || r.Rec == nil || len(r.Rec) != 0 {
		t.Fatalf("empty live row round-trip: %+v", r)
	}

	end := mustDecodeOne(t, EncodeCkptEnd(&CkptEnd{CSN: 9, Rows: 2}))
	if end.CkptEnd == nil || end.CkptEnd.CSN != 9 || end.CkptEnd.Rows != 2 {
		t.Fatalf("end round-trip: %+v", end.CkptEnd)
	}
}

// TestClassifyTornLastCheckpointFallsBack cuts the log inside the final
// checkpoint, at every possible byte offset: classification must land
// on the checkpoint BEFORE the incomplete one — whose rows must never
// apply — and the commits the torn one covered become redo work again.
func TestClassifyTornLastCheckpointFallsBack(t *testing.T) {
	s := testSchema()
	rec := func(k int64, v string) core.Record { return core.Record{core.Int(k), core.Str(v)} }

	var log []byte
	log = append(log, EncodeSchema(&s)...)
	log = append(log, ckptFrames(5, []core.Schema{s}, []CkptRow{
		{Table: "T", Key: core.Int(1), CSN: 5, Rec: rec(1, "a")},
	})...)
	log = append(log, commitFrameBytes(6)...)
	log = append(log, ckptFrames(6, []core.Schema{s}, []CkptRow{
		{Table: "T", Key: core.Int(1), CSN: 6, Rec: rec(1, "a2")},
	})...)
	log = append(log, commitFrameBytes(7)...)
	prefix := len(log)
	last := ckptFrames(7, []core.Schema{s},
		[]CkptRow{{Table: "T", Key: core.Int(1), CSN: 6, Rec: rec(1, "a2")}},
		[]CkptRow{{Table: "T", Key: core.Int(2), CSN: 7, Rec: rec(2, "b")}},
	)

	for cut := 0; cut < len(last); cut++ {
		info := Classify(append(log[:prefix:prefix], last[:cut]...))
		if info.Checkpoint == nil || info.Checkpoint.CSN != 6 {
			t.Fatalf("cut %d: checkpoint %+v, want fallback to cut 6", cut, info.Checkpoint)
		}
		rows := info.Checkpoint.Rows
		if len(rows) != 1 || rows[0].Key != core.Int(1) || !rows[0].Rec.Equal(rec(1, "a2")) {
			t.Fatalf("cut %d: incomplete checkpoint partially applied: %+v", cut, rows)
		}
		if len(info.Commits) != 1 || info.Commits[0].CSN != 7 {
			t.Fatalf("cut %d: commit 7 must be redo again: %+v", cut, info.Commits)
		}
	}

	// The complete checkpoint, for contrast, is the one restored.
	info := Classify(append(log[:prefix:prefix], last...))
	if info.Checkpoint.CSN != 7 || len(info.Checkpoint.Rows) != 2 || len(info.Commits) != 0 {
		t.Fatalf("complete checkpoint not restored: %+v, redo %+v", info.Checkpoint, info.Commits)
	}
}

// TestClassifyDropsAbandonedAndMismatchedCheckpoints pins the two discard
// rules: a begin marker followed by another begin abandons the first
// checkpoint (its rows must not leak into the second), and an end marker
// whose row count disagrees with the streamed batches invalidates the
// checkpoint (a lost rows batch must not pass as a shorter checkpoint).
func TestClassifyDropsAbandonedAndMismatchedCheckpoints(t *testing.T) {
	s := testSchema()
	row := func(k int64, csn uint64) CkptRow {
		return CkptRow{Table: "T", Key: core.Int(k), CSN: csn, Rec: core.Record{core.Int(k), core.Str("a")}}
	}
	first := ckptFrames(5, []core.Schema{s}, []CkptRow{row(1, 5)})

	// Abandoned: a begin at cut 8 and one batch, then a new begin at cut
	// 9 that completes. The cut-8 rows belong to nothing.
	abandoned := append(append([]byte(nil), first...),
		EncodeCkptBegin(&CkptBegin{CSN: 8, Schemas: []core.Schema{s}})...)
	abandoned = append(abandoned, EncodeCkptRows(&CkptRows{CSN: 8, Rows: []CkptRow{row(2, 8)}})...)
	abandoned = append(abandoned, ckptFrames(9, []core.Schema{s}, []CkptRow{row(1, 5), row(3, 9)})...)
	info := Classify(abandoned)
	if info.Checkpoint.CSN != 9 || len(info.Checkpoint.Rows) != 2 ||
		info.Checkpoint.Rows[1].Key != core.Int(3) {
		t.Fatalf("abandoned checkpoint leaked: %+v", info.Checkpoint)
	}
	// An abandoned begin with nothing after it leaves the previous one.
	info = Classify(append(append([]byte(nil), first...),
		EncodeCkptBegin(&CkptBegin{CSN: 8, Schemas: []core.Schema{s}})...))
	if info.Checkpoint.CSN != 5 {
		t.Fatalf("open begin replaced the complete checkpoint: %+v", info.Checkpoint)
	}

	// Row-count mismatch: end claims 2 rows, only 1 streamed.
	bad := append(append([]byte(nil), first...),
		EncodeCkptBegin(&CkptBegin{CSN: 8, Schemas: []core.Schema{s}})...)
	bad = append(bad, EncodeCkptRows(&CkptRows{CSN: 8, Rows: []CkptRow{row(2, 8)}})...)
	bad = append(bad, EncodeCkptEnd(&CkptEnd{CSN: 8, Rows: 2})...)
	info = Classify(bad)
	if info.Checkpoint.CSN != 5 || len(info.Checkpoint.Rows) != 1 {
		t.Fatalf("count-mismatched checkpoint restored: %+v", info.Checkpoint)
	}
}

// TestClassifyIgnoresRetiredCheckpointFrame pins the end of upgrade
// compatibility: the full-image checkpoint frame (kind 2) is not a
// checkpoint. A stream whose only "checkpoint" is such a record holds no
// checkpoint at all — the record ends the valid prefix, the checkpoint
// behind it is unreachable, and recovery replays every commit in front
// of it from the schema frame up.
func TestClassifyIgnoresRetiredCheckpointFrame(t *testing.T) {
	s := testSchema()
	var log []byte
	log = append(log, EncodeSchema(&s)...)
	log = append(log, commitFrameBytes(1)...)
	log = append(log, commitFrameBytes(2)...)
	clean := len(log)
	log = append(log, retiredCheckpointFrame(2)...)
	log = append(log, ckptFrames(3, []core.Schema{s})...)

	info := Classify(log)
	if info.Checkpoint != nil {
		t.Fatalf("checkpoint behind the retired record restored: %+v", info.Checkpoint)
	}
	if info.ValidBytes != clean || len(info.Commits) != 2 || info.HighCSN != 2 {
		t.Fatalf("full redo expected in front of the record: %+v", info)
	}
	if len(info.Schemas) != 1 || info.Schemas[0].Name != "T" {
		t.Fatalf("schema frame not recovered: %+v", info.Schemas)
	}
}
