package wal

import (
	"bytes"
	"strings"
	"testing"

	"sicost/internal/core"
)

func testSchema() core.Schema {
	return core.Schema{
		Name: "T",
		Columns: []core.Column{
			{Name: "id", Kind: core.KindInt, NotNull: true},
			{Name: "name", Kind: core.KindString},
		},
		PK:     0,
		Unique: []int{1},
	}
}

func mustDecodeOne(t *testing.T, b []byte) Frame {
	t.Helper()
	f, n, err := DecodeFrameAt(b, 0)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(b) {
		t.Fatalf("frame length %d, want %d", n, len(b))
	}
	return f
}

func TestCommitFrameRoundTrip(t *testing.T) {
	in := &CommitFrame{
		TxID: 42, CSN: 99,
		Rows: []RowImage{
			{Table: "Saving", Key: core.Int(7), Rec: core.Record{core.Int(7), core.Int(500)}},
			{Table: "Account", Key: core.Str("cust-1"), Rec: core.Record{core.Str("cust-1"), core.Null()}},
			{Table: "Checking", Key: core.Int(-3), Rec: nil}, // tombstone
		},
	}
	f := mustDecodeOne(t, EncodeCommit(in))
	out := f.Commit
	if out == nil {
		t.Fatal("decoded frame is not a commit")
	}
	if out.TxID != in.TxID || out.CSN != in.CSN || len(out.Rows) != len(in.Rows) {
		t.Fatalf("header round-trip: got %+v", out)
	}
	for i, r := range out.Rows {
		w := in.Rows[i]
		if r.Table != w.Table || r.Key != w.Key {
			t.Fatalf("row %d: got %v/%v, want %v/%v", i, r.Table, r.Key, w.Table, w.Key)
		}
		if (r.Rec == nil) != (w.Rec == nil) {
			t.Fatalf("row %d: liveness flipped (got %v, want %v)", i, r.Rec, w.Rec)
		}
		if r.Rec != nil && !r.Rec.Equal(w.Rec) {
			t.Fatalf("row %d: record %v, want %v", i, r.Rec, w.Rec)
		}
	}
}

// TestRetiredCheckpointKindIsCorrupt pins the reservation of frame kind
// 2 (the retired full-image checkpoint): a record of that kind, however
// well framed, is not a frame. In the tail segment it is a torn tail —
// the valid prefix ends in front of it — and in a sealed segment it is
// corruption recovery refuses to repair.
func TestRetiredCheckpointKindIsCorrupt(t *testing.T) {
	old := retiredCheckpointFrame(9)
	if _, _, err := DecodeFrameAt(old, 0); err == nil {
		t.Fatal("retired checkpoint kind decoded as a frame")
	}

	clean := append(commitFrameBytes(1), commitFrameBytes(2)...)
	tail := append(append([]byte(nil), clean...), old...)
	tail = append(tail, commitFrameBytes(3)...) // unreachable behind the corrupt record
	info, err := ClassifySegments([]SegmentData{{Index: 0, Data: tail}})
	if err != nil {
		t.Fatalf("retired kind in the tail segment must be a torn tail, got %v", err)
	}
	if info.ValidBytes != len(clean) || info.TornBytes != len(tail)-len(clean) ||
		len(info.Commits) != 2 || info.Checkpoint != nil {
		t.Fatalf("tail classification: %+v", info)
	}

	_, err = ClassifySegments([]SegmentData{
		{Index: 0, Data: tail},
		{Index: 1, Data: commitFrameBytes(4)},
	})
	if err == nil {
		t.Fatal("retired kind in a sealed segment was accepted")
	}
}

func TestSchemaFrameRoundTrip(t *testing.T) {
	s := testSchema()
	f := mustDecodeOne(t, EncodeSchema(&s))
	if f.Schema == nil || f.Schema.Name != "T" || len(f.Schema.Columns) != 2 {
		t.Fatalf("schema frame round-trip: %+v", f.Schema)
	}
}

// TestEveryBitFlipIsRejected corrupts a valid commit frame one byte at a
// time: no single-byte corruption may decode successfully — the CRC (or
// a bounds check) must catch it. This is the framing's whole job.
func TestEveryBitFlipIsRejected(t *testing.T) {
	enc := EncodeCommit(&CommitFrame{
		TxID: 1, CSN: 2,
		Rows: []RowImage{{Table: "t", Key: core.Int(1), Rec: core.Record{core.Int(1)}}},
	})
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0xff
		if _, n, err := DecodeFrameAt(bad, 0); err == nil && n == len(enc) {
			t.Fatalf("corruption at byte %d decoded as a full valid frame", i)
		}
	}
}

func TestDecodeRejectsMalformedFrames(t *testing.T) {
	valid := EncodeSchema(&core.Schema{
		Name: "x", Columns: []core.Column{{Name: "c", Kind: core.KindInt, NotNull: true}}, PK: 0,
	})
	cases := map[string][]byte{
		"empty":            nil,
		"short header":     valid[:frameHeaderSize-1],
		"truncated body":   valid[:len(valid)-1],
		"length overflow":  {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},
		"empty payload":    frame(nil),
		"unknown type":     frame([]byte{9}),
		"trailing payload": frame(append([]byte{frameSchema}, append(valid[frameHeaderSize:], 0)...)),
	}
	for name, b := range cases {
		if _, _, err := DecodeFrameAt(b, 0); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// An invalid schema (PK out of range) must be rejected even when the
	// checksum is intact: recovery trusts decoded schemas structurally.
	badSchema := core.Schema{Name: "x", Columns: []core.Column{{Name: "c", Kind: core.KindInt, NotNull: true}}, PK: 0}
	p := []byte{frameSchema}
	p = appendStr(p, badSchema.Name)
	p = appendU32(p, 1)
	p = appendStr(p, "c")
	p = append(p, byte(core.KindInt), 1)
	p = appendU32(p, 7) // PK index 7 of a 1-column table
	p = appendU32(p, 0)
	if _, _, err := DecodeFrameAt(frame(p), 0); err == nil {
		t.Error("schema frame with out-of-range PK decoded without error")
	}
}

func TestScanLogStopsAtTornTail(t *testing.T) {
	a := EncodeCommit(&CommitFrame{TxID: 1, CSN: 1})
	b := EncodeCommit(&CommitFrame{TxID: 2, CSN: 2,
		Rows: []RowImage{{Table: strings.Repeat("x", 40), Key: core.Int(9), Rec: core.Record{core.Int(9)}}}})
	log := append(append([]byte{}, a...), b...)
	torn := append(append([]byte{}, log...), b[:len(b)/2]...)

	frames, valid := ScanLog(torn)
	if len(frames) != 2 {
		t.Fatalf("decoded %d frames, want 2", len(frames))
	}
	if valid != len(log) {
		t.Fatalf("valid prefix %d, want %d", valid, len(log))
	}
	// A clean log scans to its full length.
	if _, valid := ScanLog(log); valid != len(log) {
		t.Fatalf("clean log valid prefix %d, want %d", valid, len(log))
	}
}

// commitFrames is what the commit-frame encoder is pinned on: no rows
// (an SFU-only commit), SmallBank's shape, strings, a NULL, a tombstone.
func commitFrames() []*CommitFrame {
	return []*CommitFrame{
		{TxID: 1, CSN: 2},
		{TxID: 7, CSN: 1 << 40, Rows: []RowImage{
			{Table: "Saving", Key: core.Int(7), Rec: core.Record{core.Int(7), core.Int(500)}},
			{Table: "Checking", Key: core.Int(7), Rec: core.Record{core.Int(7), core.Int(-12)}},
			{Table: "Conflict", Key: core.Int(7), Rec: core.Record{core.Int(7), core.Int(3)}},
		}},
		{TxID: 42, CSN: 99, Rows: []RowImage{
			{Table: "Account", Key: core.Str("cust-1"), Rec: core.Record{core.Str("cust-1"), core.Null(), core.Str("")}},
			{Table: "Checking", Key: core.Int(-3), Rec: nil},
			{Table: "", Key: core.Null(), Rec: core.Record{}},
		}},
	}
}

// encodeCommitByAppend is the commit-frame encoding as it was before the
// frame was built in place: the payload grown by append, then copied
// behind its header by frame. Recovery, walinspect and the fuzz corpus
// know this byte stream.
func encodeCommitByAppend(c *CommitFrame) []byte {
	p := []byte{frameCommit}
	p = appendU64(p, c.TxID)
	p = appendU64(p, c.CSN)
	p = appendU32(p, uint32(len(c.Rows)))
	for _, r := range c.Rows {
		p = appendStr(p, r.Table)
		p = appendValue(p, r.Key)
		if r.Rec == nil {
			p = append(p, 0)
		} else {
			p = append(p, 1)
			p = appendRecord(p, r.Rec)
		}
	}
	return frame(p)
}

// TestCommitFrameBytesUnchanged: building the frame in one buffer, and
// stamping the CSN into a frame encoded without it, produce byte for
// byte the frames the old encoder did.
func TestCommitFrameBytesUnchanged(t *testing.T) {
	for i, c := range commitFrames() {
		want := encodeCommitByAppend(c)
		got := EncodeCommit(c)
		if !bytes.Equal(got, want) {
			t.Errorf("frame %d: EncodeCommit\n got %x\nwant %x", i, got, want)
		}
		if len(got) != cap(got) || len(got) != commitFrameSize(c) {
			t.Errorf("frame %d: %d bytes in a buffer of %d, sized for %d", i, len(got), cap(got), commitFrameSize(c))
		}
		late := encodeCommit(&CommitFrame{TxID: c.TxID, Rows: c.Rows})
		sealCommit(late, c.CSN)
		if !bytes.Equal(late, want) {
			t.Errorf("frame %d: encoded without its CSN, then sealed\n got %x\nwant %x", i, late, want)
		}
	}
}

// TestCommitFrameOneAllocation: a commit frame costs its own buffer and
// nothing else, whatever the number of rows.
func TestCommitFrameOneAllocation(t *testing.T) {
	for i, c := range commitFrames() {
		if n := testing.AllocsPerRun(100, func() { EncodeCommit(c) }); n != 1 {
			t.Errorf("frame %d (%d rows): %v allocations per EncodeCommit, want 1", i, len(c.Rows), n)
		}
	}
}
