package wal

import (
	"testing"
	"unsafe"
)

// field is one field of a struct laid out by how commits use it: its
// offset and size.
type field struct {
	name      string
	off, size uintptr
}

// checkLines asserts DESIGN.md's layout rule on a struct of size bytes:
// each group of fields written per transaction starts a cacheLine-byte
// line, and no line that a written group touches holds a byte of a
// read-mostly field. The struct must be over 512 bytes, so that the
// allocator's size classes put it on a line boundary and offsets are
// lines.
func checkLines(t *testing.T, size uintptr, readMostly []field, written [][]field) {
	t.Helper()
	if size <= 512 {
		t.Errorf("struct of %d bytes: not placed on a line boundary", size)
	}
	line := func(off uintptr) uintptr { return off / cacheLine }
	for _, g := range written {
		if g[0].off%cacheLine != 0 {
			t.Errorf("written group %s starts at byte %d of its line", g[0].name, g[0].off%cacheLine)
		}
		for _, w := range g {
			for _, r := range readMostly {
				if line(r.off) <= line(w.off+w.size-1) && line(w.off) <= line(r.off+r.size-1) {
					t.Errorf("%s, written per transaction, shares a line with %s, read by every one", w.name, r.name)
				}
			}
		}
	}
}

// TestHotFieldsOwnCacheLines: a committer reading the log's
// configuration does not pull a line that a flush window or a commit on
// the other processor is writing.
func TestHotFieldsOwnCacheLines(t *testing.T) {
	var w WAL
	f := func(name string, off, size uintptr) field { return field{name, off, size} }
	readMostly := []field{
		f("cfg", unsafe.Offsetof(w.cfg), unsafe.Sizeof(w.cfg)),
		f("faults", unsafe.Offsetof(w.faults), unsafe.Sizeof(w.faults)),
		f("tracer", unsafe.Offsetof(w.tracer), unsafe.Sizeof(w.tracer)),
		f("spin", unsafe.Offsetof(w.spin), unsafe.Sizeof(w.spin)),
		f("committers", unsafe.Offsetof(w.committers), unsafe.Sizeof(w.committers)),
		f("procs", unsafe.Offsetof(w.procs), unsafe.Sizeof(w.procs)),
		f("broken", unsafe.Offsetof(w.broken), unsafe.Sizeof(w.broken)),
	}
	written := [][]field{
		{f("lastWindow", unsafe.Offsetof(w.lastWindow), unsafe.Sizeof(w.lastWindow))},
		{f("devMu", unsafe.Offsetof(w.devMu), unsafe.Sizeof(w.devMu))},
		{
			f("leadMu", unsafe.Offsetof(w.leadMu), unsafe.Sizeof(w.leadMu)),
			f("window", unsafe.Offsetof(w.window), unsafe.Sizeof(w.window)),
		},
		{
			f("mu", unsafe.Offsetof(w.mu), unsafe.Sizeof(w.mu)),
			f("idle", unsafe.Offsetof(w.idle), unsafe.Sizeof(w.idle)),
			f("durable", unsafe.Offsetof(w.durable), unsafe.Sizeof(w.durable)),
			f("pending", unsafe.Offsetof(w.pending), unsafe.Sizeof(w.pending)),
			f("flusher", unsafe.Offsetof(w.flusher), unsafe.Sizeof(w.flusher)),
			f("heir", unsafe.Offsetof(w.heir), unsafe.Sizeof(w.heir)),
			f("stats", unsafe.Offsetof(w.stats), unsafe.Sizeof(w.stats)),
			f("freeAt", unsafe.Offsetof(w.freeAt), unsafe.Sizeof(w.freeAt)),
			f("durableCSN", unsafe.Offsetof(w.durableCSN), unsafe.Sizeof(w.durableCSN)),
			f("outstandingRecs", unsafe.Offsetof(w.outstandingRecs), unsafe.Sizeof(w.outstandingRecs)),
		},
	}
	checkLines(t, unsafe.Sizeof(w), readMostly, written)
}
