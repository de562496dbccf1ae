package wal_test

import (
	"testing"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/wal"
)

// FuzzRecoverLog feeds arbitrary bytes to the recovery pipeline: the
// frame decoder (Classify) and the full database rebuild
// (engine.Recover). Neither may ever panic — a corrupt or adversarial
// log image must classify to a valid prefix or fail with an error. The
// Makefile's walfuzz target runs this under go test -fuzz.
func FuzzRecoverLog(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})
	f.Add(wal.EncodeCommit(&wal.CommitFrame{
		TxID: 7, CSN: 3,
		Rows: []wal.RowImage{{Table: "t", Key: core.Int(1), Rec: core.Record{core.Int(1), core.Int(5)}}},
	}))
	schema := core.Schema{
		Name: "t",
		Columns: []core.Column{
			{Name: "id", Kind: core.KindInt, NotNull: true},
			{Name: "v", Kind: core.KindInt},
		},
		PK: 0,
	}
	f.Add(wal.EncodeSchema(&schema))
	// A checkpoint: begin marker, one rows batch, end marker.
	ckpt := wal.EncodeCkptBegin(&wal.CkptBegin{CSN: 2, Schemas: []core.Schema{schema}})
	ckpt = append(ckpt, wal.EncodeCkptRows(&wal.CkptRows{CSN: 2, Rows: []wal.CkptRow{
		{Table: "t", Key: core.Int(1), CSN: 2, Rec: core.Record{core.Int(1), core.Int(9)}},
	}})...)
	f.Add(append(ckpt, wal.EncodeCkptEnd(&wal.CkptEnd{CSN: 2, Rows: 1})...))
	// A valid log with a torn tail.
	torn := append(wal.EncodeSchema(&schema), wal.EncodeCommit(&wal.CommitFrame{TxID: 1, CSN: 1})...)
	f.Add(torn[:len(torn)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		info := wal.Classify(data)
		if info.ValidBytes+info.TornBytes != len(data) {
			t.Fatalf("scan accounting: %d valid + %d torn != %d", info.ValidBytes, info.TornBytes, len(data))
		}
		if info.ValidBytes < 0 || info.TornBytes < 0 {
			t.Fatalf("negative scan accounting: %+v", info)
		}
		// The full rebuild must never panic either: it may reject the
		// image as corrupt (CSN 0, schema/record mismatch, duplicate
		// index values...), but a log that classifies must either open
		// or error.
		dev, err := wal.NewMemSegmentLog(1<<20, wal.SegmentData{Data: data})
		if err != nil {
			t.Fatal(err)
		}
		if db, _, err := engine.Recover(dev, engine.Config{}); err == nil {
			db.Close()
		}
	})
}
