package engine

import (
	"testing"
	"unsafe"
)

// field is one field of a struct laid out by how transactions use it:
// its offset and size.
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

// TestHotFieldsOwnCacheLines: a transaction reading the database's
// configuration, or a processor slot, does not pull a line that a
// commit or a Begin on the other processor is writing; and the slots
// are whole lines, so no two share one.
func TestHotFieldsOwnCacheLines(t *testing.T) {
	var db DB
	f := func(name string, off, size uintptr) field { return field{name, off, size} }
	hz := unsafe.Offsetof(db.hz)
	readMostly := []field{
		f("cfg", unsafe.Offsetof(db.cfg), unsafe.Sizeof(db.cfg)),
		f("cost", unsafe.Offsetof(db.cost), unsafe.Sizeof(db.cost)),
		f("store", unsafe.Offsetof(db.store), unsafe.Sizeof(db.store)),
		f("locks", unsafe.Offsetof(db.locks), unsafe.Sizeof(db.locks)),
		f("log", unsafe.Offsetof(db.log), unsafe.Sizeof(db.log)),
		f("machine", unsafe.Offsetof(db.machine), unsafe.Sizeof(db.machine)),
		f("faults", unsafe.Offsetof(db.faults), unsafe.Sizeof(db.faults)),
		f("ssi", unsafe.Offsetof(db.ssi), unsafe.Sizeof(db.ssi)),
		f("gate", unsafe.Offsetof(db.gate), unsafe.Sizeof(db.gate)),
		f("tracer", unsafe.Offsetof(db.tracer), unsafe.Sizeof(db.tracer)),
		f("defaultDeadline", unsafe.Offsetof(db.defaultDeadline), unsafe.Sizeof(db.defaultDeadline)),
		f("closing", unsafe.Offsetof(db.closing), unsafe.Sizeof(db.closing)),
		f("drained", unsafe.Offsetof(db.drained), unsafe.Sizeof(db.drained)),
		f("slots", unsafe.Offsetof(db.slots), unsafe.Sizeof(db.slots)),
		f("handles", unsafe.Offsetof(db.handles), unsafe.Sizeof(db.handles)),
		f("hz.slots", hz+unsafe.Offsetof(db.hz.slots), unsafe.Sizeof(db.hz.slots)),
		f("hz.every", hz+unsafe.Offsetof(db.hz.every), unsafe.Sizeof(db.hz.every)),
	}
	written := [][]field{
		{
			f("hz.mu", hz+unsafe.Offsetof(db.hz.mu), unsafe.Sizeof(db.hz.mu)),
			f("hz.pins", hz+unsafe.Offsetof(db.hz.pins), unsafe.Sizeof(db.hz.pins)),
			f("hz.csn", hz+unsafe.Offsetof(db.hz.csn), unsafe.Sizeof(db.hz.csn)),
		},
		{
			f("seqMu", unsafe.Offsetof(db.seqMu), unsafe.Sizeof(db.seqMu)),
			f("seqWaiters", unsafe.Offsetof(db.seqWaiters), unsafe.Sizeof(db.seqWaiters)),
			f("nextCSN", unsafe.Offsetof(db.nextCSN), unsafe.Sizeof(db.nextCSN)),
			f("visibleCSN", unsafe.Offsetof(db.visibleCSN), unsafe.Sizeof(db.visibleCSN)),
			f("seqWaits", unsafe.Offsetof(db.seqWaits), unsafe.Sizeof(db.seqWaits)),
		},
		{f("nextTxID", unsafe.Offsetof(db.nextTxID), unsafe.Sizeof(db.nextTxID))},
	}
	checkLines(t, unsafe.Sizeof(db), readMostly, written)

	if size := unsafe.Sizeof(txSlot{}); size%cacheLine != 0 || size <= 512 {
		t.Errorf("a slot is %d bytes: not whole lines on a line boundary", size)
	}
}
