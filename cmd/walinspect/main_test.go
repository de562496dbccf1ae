package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sicost/internal/core"
	"sicost/internal/wal"
)

func commitFrame(csn uint64) []byte {
	return wal.EncodeCommit(&wal.CommitFrame{
		TxID: csn, CSN: csn,
		Rows: []wal.RowImage{{Table: "t", Key: core.Int(int64(csn)), Rec: core.Record{core.Int(int64(csn))}}},
	})
}

// TestSingleFileIsReadOnlyDump pins the file argument: one segment file
// (a copied one, say) is classified and dumped, a torn tail is reported
// with status 1, and -repair is refused with a message pointing at the
// directory layout — the file is never written.
func TestSingleFileIsReadOnlyDump(t *testing.T) {
	torn := append(append(commitFrame(1), commitFrame(2)...), 0xde, 0xad)
	path := filepath.Join(t.TempDir(), wal.SegmentName(3))
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := run(path, options{frames: true}, &stdout, &stderr); code != 1 {
		t.Fatalf("torn file: exit %d, want 1; stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"1 segments", "wal.0003", "commits CSN 1..2", "commit tx=2 csn=2", "tail: TORN — 2 bytes"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("dump does not contain %q:\n%s", want, stdout.String())
		}
	}
	if strings.Contains(stdout.String(), "-repair") {
		t.Errorf("file dump suggests -repair:\n%s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run(path, options{repair: true}, &stdout, &stderr); code != 2 {
		t.Fatalf("-repair on a file: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "directory") || !strings.Contains(stderr.String(), path) {
		t.Errorf("-repair on a file: message %q names neither the path nor the directory layout", stderr.String())
	}
	if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, torn) {
		t.Fatalf("file argument was modified: %v", err)
	}
}

// TestRepairDirectory covers the directory path end to end: a torn tail
// in the last segment is reported, repaired in place with -repair, and
// clean afterwards.
func TestRepairDirectory(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, wal.SegmentName(0)), commitFrame(1), 0o644); err != nil {
		t.Fatal(err)
	}
	tail := append(commitFrame(2), 1, 2, 3)
	if err := os.WriteFile(filepath.Join(dir, wal.SegmentName(1)), tail, 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := run(dir, options{}, &stdout, &stderr); code != 1 || !strings.Contains(stdout.String(), "run with -repair") {
		t.Fatalf("torn directory: exit %d, output:\n%s%s", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	if code := run(dir, options{repair: true}, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "repaired: truncated to") {
		t.Fatalf("repair: exit %d, output:\n%s%s", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	if code := run(dir, options{}, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "tail: clean") {
		t.Fatalf("after repair: exit %d, output:\n%s%s", code, stdout.String(), stderr.String())
	}
	if b, err := os.ReadFile(filepath.Join(dir, wal.SegmentName(1))); err != nil || !bytes.Equal(b, commitFrame(2)) {
		t.Fatalf("repaired tail segment: %d bytes, %v", len(b), err)
	}
}

// TestCheckpointDump pins how a checkpoint reads: its three frames in the
// dump, and the classification line naming the checkpoint recovery
// restores, with the commit after its cut as redo.
func TestCheckpointDump(t *testing.T) {
	schema := core.Schema{Name: "t", Columns: []core.Column{{Name: "id", Kind: core.KindInt, NotNull: true}}}
	log := wal.EncodeSchema(&schema)
	log = append(log, commitFrame(1)...)
	log = append(log, wal.EncodeCkptBegin(&wal.CkptBegin{CSN: 1, Schemas: []core.Schema{schema}})...)
	log = append(log, wal.EncodeCkptRows(&wal.CkptRows{CSN: 1, Rows: []wal.CkptRow{
		{Table: "t", Key: core.Int(1), CSN: 1, Rec: core.Record{core.Int(1)}},
	}})...)
	log = append(log, wal.EncodeCkptEnd(&wal.CkptEnd{CSN: 1, Rows: 1})...)
	log = append(log, commitFrame(2)...)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, wal.SegmentName(0)), log, 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := run(dir, options{frames: true}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, output:\n%s%s", code, stdout.String(), stderr.String())
	}
	for _, want := range []string{"ckpt-begin csn=1 schemas=1", "ckpt-rows csn=1 rows=1", "ckpt-end csn=1 rows=1",
		"checkpoint: CSN 1, 1 tables, 1 rows\n", "redo: 1 commits, CSN 2..2"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output does not contain %q:\n%s", want, stdout.String())
		}
	}
}
