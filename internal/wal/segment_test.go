package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sicost/internal/core"
	"sicost/internal/faultinject"
)

func TestParseSegmentName(t *testing.T) {
	cases := []struct {
		name string
		idx  int
		ok   bool
	}{
		{"wal.0000", 0, true},
		{"wal.0001", 1, true},
		{"wal.0042", 42, true},
		{"wal.9999", 9999, true},
		{"wal.10000", 10000, true},
		{"wal.123456789", 123456789, true},
		{"wal.1234567890", 0, false}, // >9 digits
		{"wal.000", 0, false},        // <4 digits
		{"wal.00a0", 0, false},
		{"wal.", 0, false},
		{"wal0000", 0, false},
		{"WAL.0000", 0, false},
		{"wal.0000.tmp", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		idx, ok := ParseSegmentName(c.name)
		if ok != c.ok || (ok && idx != c.idx) {
			t.Errorf("ParseSegmentName(%q) = %d,%v want %d,%v", c.name, idx, ok, c.idx, c.ok)
		}
	}
	for _, i := range []int{0, 7, 9999, 10000, 123456} {
		if idx, ok := ParseSegmentName(SegmentName(i)); !ok || idx != i {
			t.Errorf("round trip %d -> %q -> %d,%v", i, SegmentName(i), idx, ok)
		}
	}
}

// TestSegmentRotation drives enough commits through a small-segment log
// to force several rotations and checks the recovered history is
// complete across segment boundaries.
func TestSegmentRotation(t *testing.T) {
	dev, err := NewMemSegmentLog(256)
	if err != nil {
		t.Fatal(err)
	}
	w := New(Config{Device: dev})
	defer w.Close()

	const n = 20
	for csn := uint64(1); csn <= n; csn++ {
		if err := durableCommit(w, csn); err != nil {
			t.Fatal(err)
		}
	}
	if dev.SegmentCount() < 2 {
		t.Fatalf("no rotation after %d commits into 256-byte segments (%d segment)", n, dev.SegmentCount())
	}
	info, err := Recover(dev)
	if err != nil {
		t.Fatal(err)
	}
	if info.Segments != dev.SegmentCount() {
		t.Fatalf("info.Segments = %d, device has %d", info.Segments, dev.SegmentCount())
	}
	if len(info.Commits) != n || info.HighCSN != n || info.TornBytes != 0 {
		t.Fatalf("recovery across segments: %d commits, HighCSN %d, torn %d", len(info.Commits), info.HighCSN, info.TornBytes)
	}
	if s := w.Stats(); s.Bytes != dev.Size() {
		t.Fatalf("accounted %d bytes, device holds %d", s.Bytes, dev.Size())
	}
}

// TestSegmentRetireBehindFullLink checks how a checkpoint bounds the
// log: a checkpoint is appended at the tail, the sealed segments behind
// its begin marker are retired, and post-checkpoint commits recover on
// top of it.
func TestSegmentRetireBehindFullLink(t *testing.T) {
	dev := newTestLog(t)
	w := New(Config{Device: dev})
	defer w.Close()

	for csn := uint64(1); csn <= 12; csn++ {
		if err := durableCommit(w, csn); err != nil {
			t.Fatal(err)
		}
	}
	if dev.SegmentCount() < 2 {
		t.Fatalf("want rotations before the checkpoint, have %d segment", dev.SegmentCount())
	}
	bound := dev.CurrentSegment()
	marker := Control(EncodeCkptBegin(&CkptBegin{CSN: 12, Schemas: []core.Schema{testSchema()}}))
	if err := sequenced(w, marker); err != nil {
		t.Fatal(err)
	}
	if marker.Segment != bound {
		t.Fatalf("the marker's window was written with appends landing in segment %d, want %d", marker.Segment, bound)
	}
	if err := sequenced(w, Control(EncodeCkptEnd(&CkptEnd{CSN: 12}))); err != nil {
		t.Fatal(err)
	}
	preSegs := dev.SegmentCount()
	retired, err := w.Retire(bound)
	if err != nil {
		t.Fatal(err)
	}
	if retired != bound || dev.SegmentCount() != preSegs-retired {
		t.Fatalf("retired %d of %d segments behind bound %d, %d left", retired, preSegs, bound, dev.SegmentCount())
	}
	if s := w.Stats(); s.RetiredSegments != int64(retired) {
		t.Fatalf("stats = %+v, want RetiredSegments=%d", s, retired)
	}
	for csn := uint64(13); csn <= 16; csn++ {
		if err := durableCommit(w, csn); err != nil {
			t.Fatal(err)
		}
	}
	// The markers are no commits: they count in no commit statistic and
	// leave the watermark at the last commit, but each is a window and a
	// sync of its own, as every commit here is.
	if s := w.Stats(); s.Records != 16 || s.Syncs != 18 {
		t.Fatalf("stats = %+v, want Records=16, the commits alone, and Syncs=18", s)
	}
	if csn, outstanding := w.DurableWatermark(); csn != 16 || outstanding {
		t.Fatalf("watermark %d (outstanding %v), want 16", csn, outstanding)
	}
	info, err := Recover(dev)
	if err != nil {
		t.Fatal(err)
	}
	if info.Checkpoint == nil || info.Checkpoint.CSN != 12 {
		t.Fatalf("recovery missed the checkpoint: %+v", info.Checkpoint)
	}
	if len(info.Commits) != 4 || info.HighCSN != 16 {
		t.Fatalf("redo after checkpoint: %d commits, HighCSN %d", len(info.Commits), info.HighCSN)
	}
}

// TestSegmentTornTailRepair tears the final segment and checks Recover
// truncates in place and is idempotent.
func TestSegmentTornTailRepair(t *testing.T) {
	dev, err := NewMemSegmentLog(256)
	if err != nil {
		t.Fatal(err)
	}
	w := New(Config{Device: dev})
	for csn := uint64(1); csn <= 10; csn++ {
		if err := durableCommit(w, csn); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	segsBefore := dev.SegmentCount()

	// Tear: a garbage tail in the final segment (a crash mid-append).
	if err := dev.Append([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	info, err := Recover(dev)
	if err != nil {
		t.Fatal(err)
	}
	if info.TornBytes != 5 || !info.Repaired {
		t.Fatalf("torn tail not repaired: %+v", info)
	}
	if len(info.Commits) != 10 || info.HighCSN != 10 {
		t.Fatalf("repair lost commits: %d, HighCSN %d", len(info.Commits), info.HighCSN)
	}
	if dev.SegmentCount() != segsBefore {
		t.Fatalf("in-place repair changed segment count %d -> %d", segsBefore, dev.SegmentCount())
	}
	// Idempotent: a second recovery sees a clean log.
	info2, err := Recover(dev)
	if err != nil {
		t.Fatal(err)
	}
	if info2.TornBytes != 0 || info2.Repaired || len(info2.Commits) != 10 {
		t.Fatalf("second recovery not clean: %+v", info2)
	}
}

// TestSegmentTornTailSpansSegments tears the log so the valid prefix
// ends inside an earlier segment boundary scenario: the whole last
// segment is garbage. The repair must drop the garbage segment's bytes
// but keep every sealed byte.
func TestSegmentTornAtRotationBoundary(t *testing.T) {
	dev, err := NewMemSegmentLog(128)
	if err != nil {
		t.Fatal(err)
	}
	w := New(Config{Device: dev})
	for csn := uint64(1); csn <= 6; csn++ {
		if err := durableCommit(w, csn); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Force a rotation by hand, then tear the fresh segment completely:
	// a crash right after rotation, mid-first-append.
	big := make([]byte, 200)
	if err := dev.Append(big); err != nil { // oversized append rotates first
		t.Fatal(err)
	}
	info, err := Recover(dev)
	if err != nil {
		t.Fatal(err)
	}
	if info.TornBytes != len(big) {
		t.Fatalf("torn %d bytes, want %d", info.TornBytes, len(big))
	}
	if len(info.Commits) != 6 || info.HighCSN != 6 {
		t.Fatalf("boundary repair lost commits: %+v", info)
	}
}

func TestClassifySegmentsRejectsMissingMiddle(t *testing.T) {
	frame := EncodeCommit(&CommitFrame{TxID: 1, CSN: 1})
	_, err := ClassifySegments([]SegmentData{
		{Index: 0, Data: frame},
		{Index: 2, Data: frame},
	})
	if err == nil {
		t.Fatal("missing middle segment accepted")
	}
	if _, err := ClassifySegments([]SegmentData{
		{Index: 0, Data: frame},
		{Index: 0, Data: frame},
	}); err == nil {
		t.Fatal("duplicate segment accepted")
	}
}

func TestClassifySegmentsRejectsTornSealedSegment(t *testing.T) {
	frame := EncodeCommit(&CommitFrame{TxID: 1, CSN: 1})
	corrupt := append([]byte(nil), frame...)
	corrupt[len(corrupt)-1] ^= 0xff
	_, err := ClassifySegments([]SegmentData{
		{Index: 0, Data: corrupt},
		{Index: 1, Data: frame},
	})
	if err == nil {
		t.Fatal("corrupt sealed segment accepted as torn tail")
	}
}

// TestClassifySegmentsFrameAcrossBoundary checks that a frame split
// across two segments decodes: recovery scans the concatenation.
func TestClassifySegmentsFrameAcrossBoundary(t *testing.T) {
	f1 := EncodeCommit(&CommitFrame{TxID: 1, CSN: 1})
	f2 := EncodeCommit(&CommitFrame{TxID: 2, CSN: 2})
	cut := len(f1) + len(f2)/2
	all := append(append([]byte(nil), f1...), f2...)
	info, err := ClassifySegments([]SegmentData{
		{Index: 0, Data: all[:cut]},
		{Index: 1, Data: all[cut:]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Commits) != 2 || info.TornBytes != 0 {
		t.Fatalf("split frame did not decode: %+v", info)
	}
}

// TestFaultRotateCrash pins the rotation crash point: a crash at the
// rotation site fails the append, loses only the unsynced tail, and
// bricks the WAL; every acked commit recovers.
func TestFaultRotateCrash(t *testing.T) {
	dev, err := NewMemSegmentLog(256)
	if err != nil {
		t.Fatal(err)
	}
	w := New(Config{Device: dev})
	reg := faultinject.New(17)
	w.SetFaults(reg)
	defer w.Close()

	var acked []uint64
	for csn := uint64(1); ; csn++ {
		if err := durableCommit(w, csn); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, csn)
		if dev.Size() > 180 { // next commit will trip the rotation
			break
		}
	}
	if err := reg.Arm(faultinject.Spec{Point: FaultRotate, Count: 1, Action: faultinject.ActPanic}); err != nil {
		t.Fatal(err)
	}
	next := acked[len(acked)-1] + 1
	if err := durableCommit(w, next); !errors.Is(err, core.ErrInjected) {
		t.Fatalf("commit through rotation crash = %v, want ErrInjected", err)
	}
	if w.Broken() == nil {
		t.Fatal("rotation crash did not brick the WAL")
	}
	info, err := Recover(dev)
	if err != nil {
		t.Fatal(err)
	}
	if info.HighCSN != acked[len(acked)-1] || len(info.Commits) != len(acked) {
		t.Fatalf("recovery after rotation crash: HighCSN %d commits %d, want %d/%d",
			info.HighCSN, len(info.Commits), acked[len(acked)-1], len(acked))
	}
}

// TestFileSegmentLogReopen exercises the file backend end to end:
// commits across rotations, reopen from the directory, recovery, and
// torn-tail repair on disk.
func TestFileSegmentLogReopen(t *testing.T) {
	dir := t.TempDir()
	dev, err := OpenSegmentLog(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	w := New(Config{Device: dev})
	for csn := uint64(1); csn <= 15; csn++ {
		if err := durableCommit(w, csn); err != nil {
			t.Fatal(err)
		}
	}
	segs := dev.SegmentCount()
	if segs < 2 {
		t.Fatalf("no rotation on disk: %d segment", segs)
	}
	w.Close()
	dev.Close()

	// Tear the last segment on disk directly.
	last := filepath.Join(dir, SegmentName(segs-1))
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	dev2, err := OpenSegmentLog(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer dev2.Close()
	info, err := Recover(dev2)
	if err != nil {
		t.Fatal(err)
	}
	if info.TornBytes != 3 || !info.Repaired || len(info.Commits) != 15 || info.HighCSN != 15 {
		t.Fatalf("disk recovery: %+v", info)
	}
	// The repair is durable: a third open sees a clean log.
	dev3, err := OpenSegmentLog(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer dev3.Close()
	info3, err := Recover(dev3)
	if err != nil {
		t.Fatal(err)
	}
	if info3.TornBytes != 0 || len(info3.Commits) != 15 {
		t.Fatalf("repair not durable: %+v", info3)
	}
}

// TestFileSegmentLogRejectsGap: a directory with a missing middle
// segment must refuse to open.
func TestFileSegmentLogRejectsGap(t *testing.T) {
	dir := t.TempDir()
	for _, i := range []int{0, 2} {
		if err := os.WriteFile(filepath.Join(dir, SegmentName(i)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenSegmentLog(dir, 256); err == nil {
		t.Fatal("gap in segment sequence accepted")
	}
}

// TestOpenSegmentLogRejectsRegularFile pins the input validation for
// the retired single-file layout: pointing the log at an existing
// regular file must name the path and the expected directory layout,
// not surface a bare ENOTDIR from MkdirAll.
func TestOpenSegmentLogRejectsRegularFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	if err := os.WriteFile(path, commitFrameBytes(1), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenSegmentLog(path, 1<<20)
	if err == nil {
		t.Fatal("OpenSegmentLog adopted a regular file as a log directory")
	}
	for _, want := range []string{path, "directory", SegmentName(0)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	// The file is left exactly as it was.
	if b, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(b, commitFrameBytes(1)) {
		t.Fatalf("rejected file was modified: %v", rerr)
	}
}
