package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"sicost/internal/faultinject"
)

// FaultRotate fires inside SegmentLog.Append when the size threshold
// triggers a segment rotation, before the current segment is sealed. An
// injected error fails the append (the WAL bricks on it, as on any
// device error); an ActPanic models the process dying mid-rotation —
// the current segment loses its unsynced tail (page cache) and the
// append is rejected, but every synced byte survives for recovery.
const FaultRotate = "wal/rotate"

// FaultRetire fires inside SegmentLog.RetireSegments once per segment,
// before that segment is unlinked. An injected error or an
// ActPanic (process death mid-retire) stops the sweep with a prefix of
// the eligible segments removed — still a contiguous suffix layout that
// openSegments and recovery accept, because removal runs oldest-first.
const FaultRetire = "wal/retire"

const segPrefix = "wal."

// SegmentName returns the canonical file name of segment index i:
// "wal." plus a four-digit-minimum zero-padded decimal (wal.0000,
// wal.0001, ... wal.10000).
func SegmentName(i int) string { return fmt.Sprintf("%s%04d", segPrefix, i) }

// ParseSegmentName parses a segment file name produced by SegmentName.
// It accepts "wal." followed by 4–9 decimal digits and returns the
// index; anything else — wrong prefix, short or overlong digit runs,
// non-digits — reports ok == false. The digit cap keeps the index well
// inside int range on every platform.
func ParseSegmentName(name string) (idx int, ok bool) {
	if len(name) < len(segPrefix)+4 || len(name) > len(segPrefix)+9 ||
		name[:len(segPrefix)] != segPrefix {
		return 0, false
	}
	n := 0
	for i := len(segPrefix); i < len(name); i++ {
		c := name[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// SegmentData is one segment's raw image, for classification.
type SegmentData struct {
	Index int
	Data  []byte
}

// segFile is one open segment of a SegmentLog.
type segFile interface {
	append(b []byte) error
	sync() error
	truncate(n int64) error
	read() ([]byte, error)
	close() error
}

// segStore is the medium a SegmentLog manages segments on: an in-memory
// map (tests, crash-chaos) or a directory of wal.000N files.
type segStore interface {
	// list returns the indices of existing segments, unsorted.
	list() ([]int, error)
	// open returns an existing segment's handle and size.
	open(idx int) (segFile, int64, error)
	// create makes a new empty segment.
	create(idx int) (segFile, error)
	// remove deletes a segment.
	remove(idx int) error
	// syncDir makes creations/removals durable (file backend).
	syncDir() error
}

// SegmentLog is the LogDevice: it stores the byte stream as wal.000N
// segments, rotating to a fresh segment when an append would push the
// current one past the size threshold. Rotation happens only between
// Appends, so one flush window never spans segments — but recovery scans
// the concatenation, so even a frame split across a boundary (e.g. by a
// foreign writer) decodes fine. The log shrinks only from the front
// (RetireSegments, oldest-first) and the back (TruncateTail), so a crash
// at any point leaves a contiguous, decodable sequence.
type SegmentLog struct {
	mu      sync.Mutex
	store   segStore
	segSize int64
	faults  *faultinject.Registry

	segs      []segMeta // ascending, contiguous indices; last is current
	cur       segFile
	curSynced int64
	total     int64
}

type segMeta struct {
	idx  int
	size int64
}

// openSegments initializes a SegmentLog over a store: existing segments
// are adopted (indices must be contiguous), an empty store gets segment
// 0. Adopted content counts as synced — it is what survived.
func openSegments(store segStore, segSize int64) (*SegmentLog, error) {
	if segSize <= 0 {
		return nil, fmt.Errorf("wal: segment size %d must be positive", segSize)
	}
	l := &SegmentLog{store: store, segSize: segSize}
	idxs, err := store.list()
	if err != nil {
		return nil, err
	}
	sort.Ints(idxs)
	if len(idxs) == 0 {
		f, err := store.create(0)
		if err != nil {
			return nil, err
		}
		if err := store.syncDir(); err != nil {
			f.close()
			return nil, err
		}
		l.segs = []segMeta{{idx: 0}}
		l.cur = f
		return l, nil
	}
	for i := 1; i < len(idxs); i++ {
		if idxs[i] != idxs[i-1]+1 {
			return nil, fmt.Errorf("wal: segment sequence broken: %s missing (have %s and %s)",
				SegmentName(idxs[i-1]+1), SegmentName(idxs[i-1]), SegmentName(idxs[i]))
		}
	}
	for _, idx := range idxs {
		f, size, err := store.open(idx)
		if err != nil {
			return nil, err
		}
		l.segs = append(l.segs, segMeta{idx: idx, size: size})
		l.total += size
		if idx == idxs[len(idxs)-1] {
			l.cur = f
			l.curSynced = size
		} else {
			f.close()
		}
	}
	return l, nil
}

// NewMemSegmentLog returns an in-memory segmented log (tests and the
// crash-chaos harness), seeded with image when given: a captured
// Segments() result or a fuzz corpus input. The image counts as synced
// — a captured image is by definition on the platter — and must have
// contiguous indices.
func NewMemSegmentLog(segSize int64, image ...SegmentData) (*SegmentLog, error) {
	st := &memSegStore{segs: map[int]*memSeg{}}
	for _, sd := range image {
		st.segs[sd.Index] = &memSeg{buf: append([]byte(nil), sd.Data...)}
	}
	return openSegments(st, segSize)
}

// OpenSegmentLog opens (creating if needed) a segmented log in dir.
// Existing wal.000N files are adopted; foreign files are ignored.
func OpenSegmentLog(dir string, segSize int64) (*SegmentLog, error) {
	if st, err := os.Stat(dir); err == nil && !st.IsDir() {
		return nil, fmt.Errorf("wal: %s is a regular file, not a log directory: the log is a directory of %s, %s, ... segment files (the single-file layout is retired)",
			dir, SegmentName(0), SegmentName(1))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return openSegments(&fileSegStore{dir: dir}, segSize)
}

// SetFaults implements LogDevice: the registry consulted by FaultRotate
// and FaultRetire. The WAL propagates its own registry here.
func (l *SegmentLog) SetFaults(r *faultinject.Registry) {
	l.mu.Lock()
	l.faults = r
	l.mu.Unlock()
}

// cur returns the current (last) segment's meta slot.
func (l *SegmentLog) curMeta() *segMeta { return &l.segs[len(l.segs)-1] }

// Append implements LogDevice, rotating first when the current segment
// is non-empty and b would push it past the threshold. (An oversized
// single append still lands whole in one segment: frames are never
// deliberately split.)
func (l *SegmentLog) Append(b []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	cm := l.curMeta()
	if cm.size > 0 && cm.size+int64(len(b)) > l.segSize {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	if err := l.cur.append(b); err != nil {
		return fmt.Errorf("wal: segment %s append: %w", SegmentName(l.curMeta().idx), err)
	}
	l.curMeta().size += int64(len(b))
	l.total += int64(len(b))
	return nil
}

// rotate seals the current segment and opens the next. The seal is a
// sync — a sealed segment is immutable and fully durable — followed by
// the creation of segment N+1 and a directory sync. A crash anywhere in
// between leaves either [.., N] or [.., N, N+1(empty)], both contiguous
// and decodable.
func (l *SegmentLog) rotate() error {
	if err, crashed := fire(l.faults, FaultRotate); err != nil {
		if crashed {
			// Process death mid-rotation: the unsynced tail of the
			// current segment is lost with the page cache.
			_, _ = l.dropUnsynced()
		}
		return fmt.Errorf("wal: segment rotation: %w", err)
	}
	if err := l.cur.sync(); err != nil {
		return fmt.Errorf("wal: segment seal: %w", err)
	}
	next := l.curMeta().idx + 1
	f, err := l.store.create(next)
	if err != nil {
		return fmt.Errorf("wal: segment create: %w", err)
	}
	if err := l.store.syncDir(); err != nil {
		f.close()
		return fmt.Errorf("wal: segment create: %w", err)
	}
	l.cur.close()
	l.cur = f
	l.curSynced = 0
	l.segs = append(l.segs, segMeta{idx: next})
	return nil
}

// Sync implements LogDevice: only the current segment can hold unsynced
// bytes (rotation seals its predecessors). A file segment's appends are
// durable already (fileSeg), so its sync is a system call only after a
// truncation; curSynced moves either way, and it is what DropUnsynced's
// simulated page-cache loss cuts back to.
func (l *SegmentLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.cur.sync(); err != nil {
		return fmt.Errorf("wal: segment sync: %w", err)
	}
	l.curSynced = l.curMeta().size
	return nil
}

// DropUnsynced implements LogDevice: a power failure loses the current
// segment's unsynced tail.
func (l *SegmentLog) DropUnsynced() (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropUnsynced()
}

// dropUnsynced truncates the current segment back to its synced size;
// the caller holds l.mu.
func (l *SegmentLog) dropUnsynced() (int64, error) {
	cm := l.curMeta()
	dropped := cm.size - l.curSynced
	if dropped <= 0 {
		return 0, nil
	}
	if err := l.cur.truncate(l.curSynced); err != nil {
		return 0, err
	}
	cm.size = l.curSynced
	l.total -= dropped
	return dropped, nil
}

// Segments implements LogDevice.
func (l *SegmentLog) Segments() ([]SegmentData, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SegmentData, 0, len(l.segs))
	for i, m := range l.segs {
		var (
			b   []byte
			err error
		)
		if i == len(l.segs)-1 {
			b, err = l.cur.read()
		} else {
			f, _, oerr := l.store.open(m.idx)
			if oerr != nil {
				return nil, oerr
			}
			b, err = f.read()
			f.close()
		}
		if err != nil {
			return nil, fmt.Errorf("wal: segment %s read: %w", SegmentName(m.idx), err)
		}
		out = append(out, SegmentData{Index: m.idx, Data: b})
	}
	return out, nil
}

// RetireSegments implements LogDevice: unlink sealed segments with index
// < beforeIdx, oldest first. The current segment is never retired. A
// failure — injected or real — stops the sweep mid-way; because removal
// is oldest-first, the survivors [k..N] stay a contiguous index range
// that openSegments and ClassifySegments accept.
func (l *SegmentLog) RetireSegments(beforeIdx int) (retired int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.segs) > 1 && l.segs[0].idx < beforeIdx {
		m := l.segs[0]
		if ferr, crashed := fire(l.faults, FaultRetire); ferr != nil {
			if crashed {
				// Process death mid-retire takes the page cache with it.
				_, _ = l.dropUnsynced()
			}
			_ = l.store.syncDir()
			return retired, fmt.Errorf("wal: segment retire %s: %w", SegmentName(m.idx), ferr)
		}
		if rerr := l.store.remove(m.idx); rerr != nil {
			return retired, fmt.Errorf("wal: segment retire %s: %w", SegmentName(m.idx), rerr)
		}
		l.total -= m.size
		l.segs = l.segs[1:]
		retired++
	}
	if retired > 0 {
		if serr := l.store.syncDir(); serr != nil {
			return retired, fmt.Errorf("wal: segment retire: %w", serr)
		}
	}
	return retired, nil
}

// TruncateTail implements LogDevice: discard everything past the
// logical offset valid (torn-tail repair). Later segments are removed
// newest-first, then the segment containing the cut is truncated.
func (l *SegmentLog) TruncateTail(valid int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if valid > l.total {
		return fmt.Errorf("wal: truncate to %d beyond log size %d", valid, l.total)
	}
	// Find the segment containing the cut.
	off := int64(0)
	cutSeg := 0
	for i, m := range l.segs {
		if valid <= off+m.size {
			cutSeg = i
			break
		}
		off += m.size
	}
	// Remove segments after it, newest-first (keeps [0..cut] contiguous
	// if interrupted).
	if cutSeg < len(l.segs)-1 {
		l.cur.close()
		for i := len(l.segs) - 1; i > cutSeg; i-- {
			if err := l.store.remove(l.segs[i].idx); err != nil {
				return fmt.Errorf("wal: truncate: %w", err)
			}
			l.total -= l.segs[i].size
			l.segs = l.segs[:i]
		}
		// Reopen the surviving tail segment as current.
		f, _, err := l.store.open(l.segs[cutSeg].idx)
		if err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
		l.cur = f
	}
	keep := valid - off
	if keep < l.segs[cutSeg].size {
		if err := l.cur.truncate(keep); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
		if err := l.cur.sync(); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
		l.total -= l.segs[cutSeg].size - keep
		l.segs[cutSeg].size = keep
	}
	l.curSynced = l.segs[cutSeg].size
	_ = l.store.syncDir()
	return nil
}

// Size implements LogDevice.
func (l *SegmentLog) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// CurrentSegment implements LogDevice: the index of the segment new
// appends land in. The engine samples it while appending a checkpoint's
// begin marker (under the commit barrier): every earlier segment is
// covered once that checkpoint completes, so the sample is its
// retirement bound.
func (l *SegmentLog) CurrentSegment() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.curMeta().idx
}

// SegmentCount returns the number of live segments (observability).
func (l *SegmentLog) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Close releases the current segment's handle.
func (l *SegmentLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur != nil {
		err := l.cur.close()
		l.cur = nil
		return err
	}
	return nil
}

// ---- in-memory backend ----

type memSeg struct {
	mu  sync.Mutex
	buf []byte
}

func (s *memSeg) append(b []byte) error {
	s.mu.Lock()
	s.buf = append(s.buf, b...)
	s.mu.Unlock()
	return nil
}
func (s *memSeg) sync() error { return nil }
func (s *memSeg) truncate(n int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > int64(len(s.buf)) {
		return fmt.Errorf("wal: mem segment truncate %d > %d", n, len(s.buf))
	}
	s.buf = s.buf[:n]
	return nil
}
func (s *memSeg) read() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf...), nil
}
func (s *memSeg) close() error { return nil }

type memSegStore struct {
	mu   sync.Mutex
	segs map[int]*memSeg
}

func (st *memSegStore) list() ([]int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]int, 0, len(st.segs))
	for i := range st.segs {
		out = append(out, i)
	}
	return out, nil
}

func (st *memSegStore) open(idx int) (segFile, int64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.segs[idx]
	if !ok {
		return nil, 0, fmt.Errorf("wal: mem segment %s missing", SegmentName(idx))
	}
	return s, int64(len(s.buf)), nil
}

func (st *memSegStore) create(idx int) (segFile, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.segs[idx]; ok {
		return nil, fmt.Errorf("wal: mem segment %s exists", SegmentName(idx))
	}
	s := &memSeg{}
	st.segs[idx] = s
	return s, nil
}

func (st *memSegStore) remove(idx int) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.segs, idx)
	return nil
}

func (st *memSegStore) syncDir() error { return nil }

// ---- file backend ----

// fileSeg is a segment file opened write-through (os.O_SYNC, as
// PostgreSQL's wal_sync_method = open_sync; O_DSYNC has no constant in
// package os and none on Windows): an append is durable when its write
// returns, so a flush window costs one system call. What a write does not cover is a truncation, which changes
// the file's size behind the writes; sync calls fsync only after one.
// fsyncs counts those calls.
type fileSeg struct {
	f         *os.File
	size      int64
	truncated bool
	fsyncs    int
}

func (s *fileSeg) append(b []byte) error {
	n, err := s.f.WriteAt(b, s.size)
	s.size += int64(n)
	return err
}
func (s *fileSeg) sync() error {
	if !s.truncated {
		return nil
	}
	s.fsyncs++
	if err := s.f.Sync(); err != nil {
		return err
	}
	s.truncated = false
	return nil
}
func (s *fileSeg) truncate(n int64) error {
	s.truncated = true
	if err := s.f.Truncate(n); err != nil {
		return err
	}
	s.size = n
	return nil
}
func (s *fileSeg) read() ([]byte, error) {
	buf := make([]byte, s.size)
	if _, err := s.f.ReadAt(buf, 0); err != nil && s.size > 0 {
		return nil, err
	}
	return buf, nil
}
func (s *fileSeg) close() error { return s.f.Close() }

type fileSegStore struct {
	dir string
}

func (st *fileSegStore) list() ([]int, error) {
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if idx, ok := ParseSegmentName(e.Name()); ok {
			out = append(out, idx)
		}
	}
	return out, nil
}

func (st *fileSegStore) open(idx int) (segFile, int64, error) {
	f, err := os.OpenFile(filepath.Join(st.dir, SegmentName(idx)), os.O_RDWR|os.O_SYNC, 0o644)
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return &fileSeg{f: f, size: fi.Size()}, fi.Size(), nil
}

func (st *fileSegStore) create(idx int) (segFile, error) {
	f, err := os.OpenFile(filepath.Join(st.dir, SegmentName(idx)), os.O_CREATE|os.O_EXCL|os.O_RDWR|os.O_SYNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &fileSeg{f: f}, nil
}

func (st *fileSegStore) remove(idx int) error {
	return os.Remove(filepath.Join(st.dir, SegmentName(idx)))
}

func (st *fileSegStore) syncDir() error { return syncDir(st.dir) }
