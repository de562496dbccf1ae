package wal

import "testing"

// testSegSize is the rotation threshold of the suites' in-memory log:
// a handful of commit frames fill a segment, so every test that writes
// more than that runs the production rotation path.
const testSegSize = 256

// newTestLog returns an in-memory segmented log, seeded with image when
// given (one SegmentData per segment; a raw byte image goes in as
// segment 0, the tail segment the torn-tail rule applies to).
func newTestLog(t testing.TB, image ...SegmentData) *SegmentLog {
	t.Helper()
	dev, err := NewMemSegmentLog(testSegSize, image...)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// framed encodes rec for w, as a committer does before Enqueue, and
// returns it.
func framed(w *WAL, rec *Record) *Record {
	w.Encode(rec)
	return rec
}

// enqueue encodes and queues the sync record rec from the test's own
// goroutine, so that queue order is the test's order, and has a
// goroutine stand in for the record's committer: it leads the flush, or
// waits to, as the engine does between Enqueue and receiving the verdict.
func enqueue(t testing.TB, w *WAL, rec *Record) <-chan error {
	t.Helper()
	done, err := w.Enqueue(framed(w, rec))
	if err != nil {
		t.Fatalf("enqueue %d: %v", rec.TxID, err)
	}
	go w.Lead(rec, true)
	return done
}

// logImage returns the device's byte stream: every live segment
// concatenated in index order.
func logImage(t testing.TB, dev LogDevice) []byte {
	t.Helper()
	segs, err := dev.Segments()
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, s := range segs {
		all = append(all, s.Data...)
	}
	return all
}

// retiredCheckpointFrame is a well-framed (length + CRC) record of the
// retired full-image checkpoint kind, body as the old encoder wrote it
// for an empty snapshot at cut.
func retiredCheckpointFrame(cut uint64) []byte {
	return frame(appendU32(appendU64([]byte{2}, cut), 0))
}
