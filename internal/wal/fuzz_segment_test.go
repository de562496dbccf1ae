package wal_test

import (
	"testing"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/wal"
)

// fuzzSegments splits raw fuzz bytes into a segment layout: the first
// byte pair picks the segment count and a starting index, the rest is
// the stream, cut at positions derived from the data itself. The
// classifier must never panic — it may reject the layout (gaps,
// duplicate indices, torn sealed segments) or classify a valid prefix.
func fuzzSegments(data []byte) []wal.SegmentData {
	if len(data) < 2 {
		return []wal.SegmentData{{Index: 0, Data: data}}
	}
	n := int(data[0]%4) + 1
	start := int(data[1] % 3)
	body := data[2:]
	segs := make([]wal.SegmentData, 0, n)
	for i := 0; i < n; i++ {
		cut := len(body) * (i + 1) / n
		prev := len(body) * i / n
		idx := start + i
		if data[1]&0x80 != 0 && i == n-1 {
			idx++ // sometimes leave a gap before the last segment
		}
		segs = append(segs, wal.SegmentData{Index: idx, Data: body[prev:cut]})
	}
	return segs
}

// FuzzRecoverSegments drives arbitrary multi-segment layouts through
// ClassifySegments and the full engine rebuild. Invariants: never
// panic; when classification succeeds, scan accounting matches the
// concatenated length; rejected layouts (missing middles, corrupt
// sealed segments) error rather than "recover".
func FuzzRecoverSegments(f *testing.F) {
	schema := core.Schema{
		Name: "t",
		Columns: []core.Column{
			{Name: "id", Kind: core.KindInt, NotNull: true},
			{Name: "v", Kind: core.KindInt},
		},
		PK: 0,
	}
	commit := func(csn uint64) []byte {
		return wal.EncodeCommit(&wal.CommitFrame{
			TxID: csn + 10, CSN: csn,
			Rows: []wal.RowImage{{Table: "t", Key: core.Int(1), Rec: core.Record{core.Int(1), core.Int(int64(csn))}}},
		})
	}
	// Torn tail in segment N: two commits then a truncated third.
	stream := append(wal.EncodeSchema(&schema), commit(1)...)
	stream = append(stream, commit(2)...)
	tornTail := append(append([]byte(nil), stream...), commit(3)[:5]...)
	f.Add([]byte{2, 0}, tornTail)        // two segments, torn in the last
	f.Add([]byte{3, 0}, stream)          // three clean segments, frames split at boundaries
	f.Add([]byte{2, 0x80}, stream)       // gap before the last segment: must be rejected
	f.Add([]byte{1, 1}, stream)          // single segment, nonzero start index
	f.Add([]byte{4, 0}, commit(1))       // tiny frames over many segments
	f.Add([]byte{2, 0}, []byte{1, 2, 3}) // garbage
	f.Add([]byte{0, 0}, []byte{})        // empty

	// Checkpoint layouts: a checkpoint, a redo commit, a second
	// checkpoint — then the same stream with the last checkpoint torn
	// mid-batch, and with its frames straddling boundaries.
	ckpt := func(cut uint64, rows []wal.CkptRow) []byte {
		out := wal.EncodeCkptBegin(&wal.CkptBegin{CSN: cut, Schemas: []core.Schema{schema}})
		out = append(out, wal.EncodeCkptRows(&wal.CkptRows{CSN: cut, Rows: rows})...)
		return append(out, wal.EncodeCkptEnd(&wal.CkptEnd{CSN: cut, Rows: uint64(len(rows))})...)
	}
	first := append(wal.EncodeSchema(&schema),
		ckpt(2, []wal.CkptRow{{Table: "t", Key: core.Int(1), CSN: 2, Rec: core.Record{core.Int(1), core.Int(2)}}})...)
	first = append(first, commit(3)...)
	last := ckpt(3, []wal.CkptRow{
		{Table: "t", Key: core.Int(1), CSN: 3, Rec: core.Record{core.Int(1), core.Int(3)}},
		{Table: "t", Key: core.Int(2), CSN: 1, Rec: core.Record{core.Int(2), core.Int(1)}},
	})
	f.Add([]byte{2, 0}, append(append([]byte(nil), first...), last...))               // two checkpoints over two segments
	f.Add([]byte{4, 0}, append(append([]byte(nil), first...), last...))               // checkpoint frames straddling boundaries
	f.Add([]byte{3, 0}, append(append([]byte(nil), first...), last[:9]...))           // torn mid-begin of the last checkpoint
	f.Add([]byte{2, 0}, append(append([]byte(nil), first...), last[:len(last)-5]...)) // torn before the end marker

	f.Fuzz(func(t *testing.T, head, body []byte) {
		segs := fuzzSegments(append(append([]byte(nil), head...), body...))
		total := 0
		for _, s := range segs {
			total += len(s.Data)
		}
		info, err := wal.ClassifySegments(segs)
		if err != nil {
			return // rejected layout; no panic is the property
		}
		if info.ValidBytes+info.TornBytes != total {
			t.Fatalf("scan accounting: %d valid + %d torn != %d", info.ValidBytes, info.TornBytes, total)
		}
		if info.Segments != len(segs) {
			t.Fatalf("info.Segments = %d, layout has %d", info.Segments, len(segs))
		}
		// The accepted layout must also rebuild (or error) without
		// panicking.
		dev, err := wal.NewMemSegmentLog(1<<20, segs...)
		if err != nil {
			t.Fatalf("accepted layout does not open: %v", err)
		}
		if db, _, rerr := engine.Recover(dev, engine.Config{}); rerr == nil {
			db.Close()
		}
	})
}

// FuzzParseSegmentName pins the segment-name parser: it must never
// panic, must round-trip every canonical name, and must accept only
// strings SegmentName could have produced (modulo zero-padding width).
func FuzzParseSegmentName(f *testing.F) {
	f.Add("wal.0000")
	f.Add("wal.0042")
	f.Add("wal.123456789")
	f.Add("wal.1234567890")
	f.Add("wal.-001")
	f.Add("wal.00.0")
	f.Add("wal.0000.tmp")
	f.Add("")
	f.Add("wal.")
	f.Add("\x00\xff")

	f.Fuzz(func(t *testing.T, name string) {
		idx, ok := wal.ParseSegmentName(name)
		if !ok {
			return
		}
		if idx < 0 || idx > 999999999 {
			t.Fatalf("ParseSegmentName(%q) = %d out of range", name, idx)
		}
		// Accepted names must consist of the prefix plus digits only, and
		// the canonical spelling of idx must parse back to idx.
		if got, ok2 := wal.ParseSegmentName(wal.SegmentName(idx)); !ok2 || got != idx {
			t.Fatalf("round trip %q -> %d -> %q failed", name, idx, wal.SegmentName(idx))
		}
	})
}
