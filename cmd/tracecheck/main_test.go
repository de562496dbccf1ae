package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/trace"
)

var update = flag.Bool("update", false, "regenerate testdata golden traces")

// writeSkewTrace executes the canonical write-skew history on a real
// engine under plain snapshot isolation — two transactions read the
// same two rows and each updates the one the other read — with a
// logical clock, so the recorded stream is bit-identical across runs.
// SI commits both (disjoint write sets pass First-Updater-Wins), and
// the execution is not serializable.
func writeSkewTrace(t *testing.T) []trace.Event {
	t.Helper()
	var tick int64
	rec := trace.New(trace.Options{Clock: func() int64 { tick++; return tick }})
	db := engine.Open(engine.Config{Mode: core.SnapshotFUW, Platform: core.PlatformPostgres})
	db.SetTracer(rec)
	defer db.Close()
	schema := &core.Schema{
		Name: "T",
		Columns: []core.Column{
			{Name: "K", Kind: core.KindInt, NotNull: true},
			{Name: "V", Kind: core.KindInt, NotNull: true},
		},
		PK: 0,
	}
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	seed := db.Begin()
	for k := int64(0); k < 2; k++ {
		if err := seed.Insert("T", core.Record{core.Int(k), core.Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	t1, t2 := db.Begin(), db.Begin()
	for _, tx := range []*engine.Tx{t1, t2} {
		for k := int64(0); k < 2; k++ {
			if _, err := tx.Get("T", core.Int(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := t1.Update("T", core.Int(0), core.Record{core.Int(0), core.Int(-1)}); err != nil {
		t.Fatal(err)
	}
	if err := t2.Update("T", core.Int(1), core.Record{core.Int(1), core.Int(-1)}); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatalf("t1 must commit under SI: %v", err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatalf("t2 must commit under SI (write skew): %v", err)
	}
	return rec.Drain()
}

// TestWriteSkewGolden pins the committed regression trace: the same
// deterministic execution must re-encode to the identical JSONL bytes.
// Run with -update to regenerate after an intentional schema change.
func TestWriteSkewGolden(t *testing.T) {
	events := writeSkewTrace(t)
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "writeskew.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("recorded trace diverged from %s (run with -update if the wire format changed)", golden)
	}
}

// TestCheckConvictsWriteSkew is the regression gate the golden trace
// exists for: replaying it with -check must detect the write-skew
// cycle, print the structured violation, and fail — under the SI
// expectation and under the cycles-only 2PL expectation alike.
func TestCheckConvictsWriteSkew(t *testing.T) {
	for _, mode := range []string{"si", "ssi", "2pl"} {
		t.Run(mode, func(t *testing.T) {
			var out bytes.Buffer
			err := run(&out, filepath.Join("testdata", "writeskew.jsonl"), options{
				quiet: true, check: true, mode: mode,
			})
			if err == nil {
				t.Fatalf("write-skew trace passed -check -mode %s:\n%s", mode, out.String())
			}
			if !strings.Contains(err.Error(), "isolation violations") {
				t.Fatalf("unexpected failure: %v", err)
			}
			if !strings.Contains(out.String(), "write skew") {
				t.Fatalf("verdict does not name the anomaly:\n%s", out.String())
			}
		})
	}
}

// TestCheckPassesCleanTrace: a serial history replayed with -check in
// every mode stays exit-clean and keeps printing the ok trailer.
func TestCheckPassesCleanTrace(t *testing.T) {
	var tick int64
	rec := trace.New(trace.Options{Clock: func() int64 { tick++; return tick }})
	db := engine.Open(engine.Config{Mode: core.SnapshotFUW, Platform: core.PlatformPostgres})
	db.SetTracer(rec)
	defer db.Close()
	schema := &core.Schema{
		Name:    "T",
		Columns: []core.Column{{Name: "K", Kind: core.KindInt, NotNull: true}},
		PK:      0,
	}
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		tx := db.Begin()
		if err := tx.Insert("T", core.Record{core.Int(i)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "serial.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJSONL(f, rec.Drain()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"si", "2pl"} {
		var out bytes.Buffer
		if err := run(&out, path, options{quiet: true, check: true, mode: mode}); err != nil {
			t.Fatalf("clean serial trace failed -check -mode %s: %v\n%s", mode, err, out.String())
		}
		if !strings.Contains(out.String(), "ok: ") {
			t.Fatalf("missing ok trailer:\n%s", out.String())
		}
	}
	var out bytes.Buffer
	if err := run(&out, path, options{check: true, mode: "serializable"}); err == nil {
		t.Fatal("unknown -mode accepted")
	}
}
