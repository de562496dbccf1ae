package wal

import (
	"os"

	"sicost/internal/faultinject"
)

// LogDevice is the durable medium behind the WAL. The paper's testbed
// puts the log on a dedicated disk with the write cache disabled; here
// the device is a SegmentLog — a directory of wal.000N files
// (OpenSegmentLog), or the same rotation code over memory
// (NewMemSegmentLog: tests and the crash-chaos harness, which simulates
// process death and torn writes). It stays an interface so tests can
// wrap the one implementation with failing or blocking devices.
//
// A device carries no framing knowledge: it stores the byte stream the
// WAL appends. A crash may leave the final append incomplete — the
// recovery decoder's torn-tail rule handles that.
//
// Append and Sync split the durability point: Append buffers bytes at
// the tail (the OS page cache), Sync is the fdatasync-equivalent that
// makes every prior Append durable. Nothing is acknowledged to a
// committer until the Sync covering its append returns. The WAL calls
// them in pairs, one Append and one Sync per flush window (a checkpoint's
// frames are windows too), from the flush loop and under its device
// mutex; the one other caller, RetireSegments, runs between two pairs. A
// device may make an append durable before Sync — the file segments
// write through (fileSeg) — but the WAL never counts on it.
type LogDevice interface {
	// Append adds b to the end of the log. The bytes are buffered, not
	// yet durable: a crash before the next Sync may lose any suffix of
	// the unsynced tail, and a crash mid-Sync may persist any prefix of
	// it.
	Append(b []byte) error
	// Sync makes every byte appended so far durable. A Sync error voids
	// the durability promise of everything since the last successful
	// Sync (the fsyncgate lesson) — the WAL bricks itself on it.
	Sync() error
	// Size returns the current log length in bytes.
	Size() int64
	// DropUnsynced simulates a power failure dropping the page cache: it
	// discards every byte appended since the last Sync, returning how
	// many were lost. The WAL calls it when an injected crash lands
	// between an Append and its covering Sync, so the simulated platter
	// holds exactly what a real one would.
	DropUnsynced() (int64, error)
	// Segments returns every live segment's image in index order.
	// Recover validates the layout — indices must be contiguous and a
	// torn tail may only appear in the final segment — before scanning
	// the concatenation.
	Segments() ([]SegmentData, error)
	// TruncateTail discards everything past the logical offset valid
	// (torn-tail repair): later segments are dropped and the one
	// containing the cut is truncated in place.
	TruncateTail(valid int64) error
	// RetireSegments removes every sealed segment with index < beforeIdx,
	// oldest first, and returns how many it removed. A crash mid-retire
	// leaves a shorter prefix removed — still a valid suffix layout.
	RetireSegments(beforeIdx int) (retired int, err error)
	// CurrentSegment returns the index of the segment new appends land
	// in; sampled before a checkpoint's begin marker is written
	// (Record.Segment) it is that checkpoint's retirement bound.
	CurrentSegment() int
	// SetFaults installs the registry consulted by the device's own
	// fault points (FaultRotate, FaultRetire).
	SetFaults(r *faultinject.Registry)
}

// fire hits a fault point inside the flush loop or the device,
// converting an injected panic (ActPanic modelling a crash at that
// point) into its error value instead of letting it unwind the loop —
// out of a committer with the leader mutex held, or out of the
// background goroutine and with it the whole process. crashed reports
// that conversion; the caller turns it into lost page cache, a torn
// append and a bricked WAL as the point demands.
func fire(reg *faultinject.Registry, point string) (err error, crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			p, ok := faultinject.AsPanic(r)
			if !ok {
				panic(r)
			}
			err, crashed = p, true
		}
	}()
	return reg.Fire(point, faultinject.Ctx{}), false
}

// syncDir fsyncs a directory, making a create, rename or unlink inside
// it durable.
func syncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer df.Close()
	return df.Sync()
}
