package wal

import (
	"syscall"
	"testing"
)

// openFlags returns the file status flags (fcntl F_GETFL) of dev's
// current segment file.
func openFlags(t *testing.T, dev *SegmentLog) int {
	t.Helper()
	rc, err := dev.cur.(*fileSeg).f.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var (
		flags uintptr
		errno syscall.Errno
	)
	if err := rc.Control(func(fd uintptr) {
		flags, _, errno = syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_GETFL, 0)
	}); err != nil {
		t.Fatal(err)
	}
	if errno != 0 {
		t.Fatal(errno)
	}
	return int(flags)
}

// TestFileSegmentsWriteThrough: every segment file the log holds open —
// created, reopened, rotated to, reopened by TruncateTail — is opened
// O_SYNC, so an append is durable when its write returns, and a Sync
// calls fsync only to cover a truncation (TruncateTail, DropUnsynced).
func TestFileSegmentsWriteThrough(t *testing.T) {
	dir := t.TempDir()
	dev, err := OpenSegmentLog(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	writesThrough := func(what string) {
		t.Helper()
		if flags := openFlags(t, dev); flags&syscall.O_SYNC != syscall.O_SYNC {
			t.Errorf("%s segment opened with flags %#x, want O_SYNC (%#x) among them", what, flags, syscall.O_SYNC)
		}
	}
	fsyncs := func(what string, want int) {
		t.Helper()
		if got := dev.cur.(*fileSeg).fsyncs; got != want {
			t.Errorf("%s: %d fsync calls on the current segment, want %d", what, got, want)
		}
	}
	appendSync := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := dev.Append(commitFrameBytes(uint64(i + 1))); err != nil {
				t.Fatal(err)
			}
		}
		if err := dev.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	writesThrough("created")
	appendSync(3)
	fsyncs("appends and a Sync", 0)

	if err := dev.Append(commitFrameBytes(9)); err != nil {
		t.Fatal(err)
	}
	if dropped, err := dev.DropUnsynced(); err != nil || dropped == 0 {
		t.Fatalf("DropUnsynced dropped %d bytes (%v), want the unsynced append", dropped, err)
	}
	appendSync(0)
	fsyncs("a Sync after DropUnsynced", 1)
	appendSync(1)
	fsyncs("appends and a Sync after that", 1)

	first := dev.CurrentSegment()
	for dev.CurrentSegment() == first {
		appendSync(1)
	}
	writesThrough("rotated")
	fsyncs("appends and a Sync on the rotated segment", 0)

	segs, err := dev.Segments()
	if err != nil {
		t.Fatal(err)
	}
	// Cut inside the first segment: the later one goes, the first is
	// reopened and truncated, and TruncateTail syncs it.
	if err := dev.TruncateTail(int64(len(segs[0].Data) - 1)); err != nil {
		t.Fatal(err)
	}
	writesThrough("truncated")
	fsyncs("TruncateTail", 1)
	appendSync(0)
	fsyncs("a Sync after TruncateTail", 1)
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	if dev, err = OpenSegmentLog(dir, 256); err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	writesThrough("reopened")
	appendSync(2)
	fsyncs("appends and a Sync on the reopened segment", 0)
}
