package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"sicost/internal/core"
)

// Log frame format. Every frame is
//
//	[u32 payloadLen][u32 crc32c(payload)][payload]
//
// with all integers little-endian and the checksum CRC32-Castagnoli.
// payload[0] is the frame type; the rest is the type-specific body. A
// frame whose header overruns the log, whose checksum mismatches, or
// whose body fails to decode marks the torn tail: recovery keeps the
// valid prefix and discards everything from that offset on.
const (
	frameHeaderSize = 8

	frameCommit = 1
	// Kind 2 was the full-image checkpoint frame, retired when checkpoints
	// became streamed begin/rows/end triples. The number stays reserved —
	// never reused — so a log carrying one is rejected as corrupt rather
	// than misread.
	frameSchema    = 3
	frameCkptBegin = 4
	frameCkptRows  = 5
	frameCkptEnd   = 6
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// RowImage is the after-image of one row written by a committed
// transaction. Rec == nil encodes a tombstone (the commit deleted the
// row).
type RowImage struct {
	Table string
	Key   core.Value
	Rec   core.Record
}

// CommitFrame is the redo record of one committed transaction: its id,
// its commit sequence number, and the after-image of every row it
// wrote. Replaying commit frames in CSN order reproduces the committed
// state.
type CommitFrame struct {
	TxID uint64
	CSN  uint64
	Rows []RowImage
}

// Checkpoint is the newest complete checkpoint in the log: every
// commit with csn <= CSN is included, none after. Schemas are the table
// definitions as of the cut, Rows every live row at it.
type Checkpoint struct {
	CSN     uint64
	Schemas []core.Schema
	Rows    []CkptRow
}

// CkptBegin opens a checkpoint. CSN is the cut: the checkpoint's rows
// are the database as of that commit. The marker embeds every table
// schema as of the cut, so a checkpoint needs no older log bytes.
type CkptBegin struct {
	CSN     uint64
	Schemas []core.Schema
}

// CkptRow is one live row as of the cut: its newest committed version
// with csn <= cut.
type CkptRow struct {
	Table string
	Key   core.Value
	CSN   uint64
	Rec   core.Record
}

// CkptRows is one batch of a checkpoint's rows, appended between its
// begin and end markers. CSN binds the batch to its checkpoint; batches
// whose CSN does not match the open checkpoint are ignored by
// classification. Commit frames interleave freely with these batches:
// they all carry CSNs above the cut.
type CkptRows struct {
	CSN  uint64
	Rows []CkptRow
}

// CkptEnd seals a checkpoint. A checkpoint is complete, and only then
// counts for recovery, when its end marker is inside the valid prefix
// and Rows matches the CkptRow entries streamed since the begin marker.
// A torn or missing end marker discards the whole checkpoint: recovery
// falls back to the previous complete one.
type CkptEnd struct {
	CSN  uint64
	Rows uint64
}

// Frame is one decoded log frame; exactly one field is non-nil.
type Frame struct {
	Commit    *CommitFrame
	Schema    *core.Schema
	CkptBegin *CkptBegin
	CkptRows  *CkptRows
	CkptEnd   *CkptEnd
}

// --- encoding -------------------------------------------------------------

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendValue(b []byte, v core.Value) []byte {
	b = append(b, byte(v.K))
	switch v.K {
	case core.KindInt:
		b = appendU64(b, uint64(v.I))
	case core.KindString:
		b = appendStr(b, v.S)
	}
	return b
}

func appendRecord(b []byte, r core.Record) []byte {
	b = appendU32(b, uint32(len(r)))
	for _, v := range r {
		b = appendValue(b, v)
	}
	return b
}

func appendSchema(b []byte, s *core.Schema) []byte {
	b = appendStr(b, s.Name)
	b = appendU32(b, uint32(len(s.Columns)))
	for _, c := range s.Columns {
		b = appendStr(b, c.Name)
		b = append(b, byte(c.Kind))
		if c.NotNull {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	b = appendU32(b, uint32(s.PK))
	b = appendU32(b, uint32(len(s.Unique)))
	for _, u := range s.Unique {
		b = appendU32(b, uint32(u))
	}
	return b
}

// frame wraps a payload in the length+CRC header.
func frame(payload []byte) []byte {
	out := make([]byte, 0, frameHeaderSize+len(payload))
	out = appendU32(out, uint32(len(payload)))
	out = appendU32(out, crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

// commitCSNOffset is where a commit frame carries its CSN: behind the
// header, the type byte and the TxID.
const commitCSNOffset = frameHeaderSize + 1 + 8

func valueSize(v core.Value) int {
	switch v.K {
	case core.KindInt:
		return 1 + 8
	case core.KindString:
		return 1 + 4 + len(v.S)
	}
	return 1
}

// commitFrameSize is the exact length of c's frame, header included.
func commitFrameSize(c *CommitFrame) int {
	n := commitCSNOffset + 8 + 4
	for _, r := range c.Rows {
		n += 4 + len(r.Table) + valueSize(r.Key) + 1
		if r.Rec != nil {
			n += recordSize(r.Rec)
		}
	}
	return n
}

// recordSize is the length of r's encoding (appendRecord).
func recordSize(r core.Record) int {
	n := 4
	for _, v := range r {
		n += valueSize(v)
	}
	return n
}

// encodeCommit renders c's frame into buf when c fits its capacity, and
// into one buffer it allocates otherwise: the header's room first, then
// the payload, whose CSN and the header sealCommit fill in.
func encodeCommit(buf []byte, c *CommitFrame) []byte {
	b := buf
	if n := commitFrameSize(c); cap(b) < n {
		b = make([]byte, 0, n)
	}
	b = append(b[:frameHeaderSize], frameCommit)
	b = appendU64(b, c.TxID)
	b = appendU64(b, c.CSN)
	b = appendU32(b, uint32(len(c.Rows)))
	for _, r := range c.Rows {
		b = appendStr(b, r.Table)
		b = appendValue(b, r.Key)
		if r.Rec == nil {
			b = append(b, 0)
		} else {
			b = append(b, 1)
			b = appendRecord(b, r.Rec)
		}
	}
	return b
}

// sealCommit gives the commit frame b its CSN and, over the payload that
// is complete with it, its header.
func sealCommit(b []byte, csn uint64) {
	binary.LittleEndian.PutUint64(b[commitCSNOffset:], csn)
	sealFrame(b)
}

// sealFrame fills in the header of a frame whose payload was written
// behind the header's room: the payload's length and checksum.
func sealFrame(b []byte) {
	binary.LittleEndian.PutUint32(b, uint32(len(b)-frameHeaderSize))
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(b[frameHeaderSize:], castagnoli))
}

// EncodeCommit renders a commit frame, header included.
func EncodeCommit(c *CommitFrame) []byte {
	b := encodeCommit(nil, c)
	sealCommit(b, c.CSN)
	return b
}

// EncodeSchema renders a schema (DDL) frame, header included.
func EncodeSchema(s *core.Schema) []byte {
	p := []byte{frameSchema}
	p = appendSchema(p, s)
	return frame(p)
}

// EncodeCkptBegin renders a checkpoint begin marker, header included.
func EncodeCkptBegin(d *CkptBegin) []byte {
	p := []byte{frameCkptBegin}
	p = appendU64(p, d.CSN)
	p = appendU32(p, uint32(len(d.Schemas)))
	for i := range d.Schemas {
		p = appendSchema(p, &d.Schemas[i])
	}
	return frame(p)
}

// EncodeCkptRows renders one batch of checkpoint rows, header included,
// into one buffer of the frame's exact size.
func EncodeCkptRows(d *CkptRows) []byte {
	return AppendCkptRows(nil, d)
}

// AppendCkptRows appends d's rows frame, header included, to dst and
// returns the extended slice; dst grows once, to fit the frame exactly,
// when its capacity is short. A checkpoint renders every batch into the
// same buffer this way, reusing it once the batch before has its
// verdict.
func AppendCkptRows(dst []byte, d *CkptRows) []byte {
	n := frameHeaderSize + 1 + 8 + 4
	for _, r := range d.Rows {
		n += 4 + len(r.Table) + valueSize(r.Key) + 8 + recordSize(r.Rec)
	}
	if cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	start := len(dst)
	b := append(dst, make([]byte, frameHeaderSize)...)
	b = append(b, frameCkptRows)
	b = appendU64(b, d.CSN)
	b = appendU32(b, uint32(len(d.Rows)))
	for _, r := range d.Rows {
		b = appendStr(b, r.Table)
		b = appendValue(b, r.Key)
		b = appendU64(b, r.CSN)
		b = appendRecord(b, r.Rec)
	}
	sealFrame(b[start:])
	return b
}

// EncodeCkptEnd renders a checkpoint end marker, header included.
func EncodeCkptEnd(d *CkptEnd) []byte {
	p := []byte{frameCkptEnd}
	p = appendU64(p, d.CSN)
	p = appendU64(p, d.Rows)
	return frame(p)
}

// --- decoding -------------------------------------------------------------

// reader is a bounds-checked cursor over a payload. Every method
// returns an error instead of panicking, so arbitrarily corrupted
// bytes (the walfuzz target) can never take the decoder down. It
// never pre-allocates by claimed counts — each loop iteration consumes
// at least one byte, so corrupt counts fail at end-of-payload instead
// of exhausting memory.
type reader struct {
	b   []byte
	off int
}

var errShortFrame = fmt.Errorf("wal: truncated frame body")

func (r *reader) u8() (byte, error) {
	if r.off >= len(r.b) {
		return 0, errShortFrame
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.off+4 > len(r.b) {
		return 0, errShortFrame
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.off+8 > len(r.b) {
		return 0, errShortFrame
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if uint64(r.off)+uint64(n) > uint64(len(r.b)) {
		return "", errShortFrame
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *reader) value() (core.Value, error) {
	k, err := r.u8()
	if err != nil {
		return core.Value{}, err
	}
	switch core.Kind(k) {
	case core.KindNull:
		return core.Null(), nil
	case core.KindInt:
		i, err := r.u64()
		if err != nil {
			return core.Value{}, err
		}
		return core.Int(int64(i)), nil
	case core.KindString:
		s, err := r.str()
		if err != nil {
			return core.Value{}, err
		}
		return core.Str(s), nil
	default:
		return core.Value{}, fmt.Errorf("wal: unknown value kind %d", k)
	}
}

func (r *reader) record() (core.Record, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	var rec core.Record
	for i := uint32(0); i < n; i++ {
		v, err := r.value()
		if err != nil {
			return nil, err
		}
		rec = append(rec, v)
	}
	return rec, nil
}

func (r *reader) schema() (core.Schema, error) {
	var s core.Schema
	var err error
	if s.Name, err = r.str(); err != nil {
		return s, err
	}
	ncols, err := r.u32()
	if err != nil {
		return s, err
	}
	for i := uint32(0); i < ncols; i++ {
		var c core.Column
		if c.Name, err = r.str(); err != nil {
			return s, err
		}
		k, err := r.u8()
		if err != nil {
			return s, err
		}
		c.Kind = core.Kind(k)
		nn, err := r.u8()
		if err != nil {
			return s, err
		}
		c.NotNull = nn != 0
		s.Columns = append(s.Columns, c)
	}
	pk, err := r.u32()
	if err != nil {
		return s, err
	}
	s.PK = int(pk)
	nuniq, err := r.u32()
	if err != nil {
		return s, err
	}
	for i := uint32(0); i < nuniq; i++ {
		u, err := r.u32()
		if err != nil {
			return s, err
		}
		s.Unique = append(s.Unique, int(u))
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

func (r *reader) commitFrame() (*CommitFrame, error) {
	c := &CommitFrame{}
	var err error
	if c.TxID, err = r.u64(); err != nil {
		return nil, err
	}
	if c.CSN, err = r.u64(); err != nil {
		return nil, err
	}
	if c.CSN == 0 {
		// The engine never allocates CSN 0; a frame claiming it is
		// corrupt even when its checksum holds.
		return nil, fmt.Errorf("wal: commit frame with CSN 0")
	}
	nrows, err := r.u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nrows; i++ {
		var row RowImage
		if row.Table, err = r.str(); err != nil {
			return nil, err
		}
		if row.Key, err = r.value(); err != nil {
			return nil, err
		}
		live, err := r.u8()
		if err != nil {
			return nil, err
		}
		if live != 0 {
			if row.Rec, err = r.record(); err != nil {
				return nil, err
			}
			if row.Rec == nil {
				row.Rec = core.Record{}
			}
		}
		c.Rows = append(c.Rows, row)
	}
	return c, nil
}

func (r *reader) ckptBeginFrame() (*CkptBegin, error) {
	d := &CkptBegin{}
	var err error
	if d.CSN, err = r.u64(); err != nil {
		return nil, err
	}
	if d.CSN == 0 {
		// The cut is a published CSN, never 0.
		return nil, fmt.Errorf("wal: checkpoint begin with CSN 0")
	}
	nschemas, err := r.u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nschemas; i++ {
		s, err := r.schema()
		if err != nil {
			return nil, err
		}
		d.Schemas = append(d.Schemas, s)
	}
	return d, nil
}

func (r *reader) ckptRowsFrame() (*CkptRows, error) {
	d := &CkptRows{}
	var err error
	if d.CSN, err = r.u64(); err != nil {
		return nil, err
	}
	nrows, err := r.u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nrows; i++ {
		var row CkptRow
		if row.Table, err = r.str(); err != nil {
			return nil, err
		}
		if row.Key, err = r.value(); err != nil {
			return nil, err
		}
		if row.CSN, err = r.u64(); err != nil {
			return nil, err
		}
		if row.Rec, err = r.record(); err != nil {
			return nil, err
		}
		if row.Rec == nil {
			row.Rec = core.Record{} // live, not the nil of a tombstone
		}
		d.Rows = append(d.Rows, row)
	}
	return d, nil
}

func (r *reader) ckptEndFrame() (*CkptEnd, error) {
	d := &CkptEnd{}
	var err error
	if d.CSN, err = r.u64(); err != nil {
		return nil, err
	}
	if d.Rows, err = r.u64(); err != nil {
		return nil, err
	}
	if d.CSN == 0 {
		return nil, fmt.Errorf("wal: checkpoint end with CSN 0")
	}
	return d, nil
}

// DecodeFrameAt decodes the frame starting at byte offset off. It
// returns the frame, the total encoded length (header included), and
// an error when the bytes at off do not form a complete, checksummed,
// well-formed frame — the torn-tail condition.
func DecodeFrameAt(b []byte, off int) (Frame, int, error) {
	if off < 0 || off+frameHeaderSize > len(b) {
		return Frame{}, 0, errShortFrame
	}
	plen := binary.LittleEndian.Uint32(b[off:])
	sum := binary.LittleEndian.Uint32(b[off+4:])
	end := uint64(off) + frameHeaderSize + uint64(plen)
	if end > uint64(len(b)) {
		return Frame{}, 0, errShortFrame
	}
	payload := b[off+frameHeaderSize : end]
	if crc32.Checksum(payload, castagnoli) != sum {
		return Frame{}, 0, fmt.Errorf("wal: frame at %d: checksum mismatch", off)
	}
	if len(payload) == 0 {
		return Frame{}, 0, fmt.Errorf("wal: frame at %d: empty payload", off)
	}
	r := &reader{b: payload, off: 1}
	var f Frame
	var err error
	switch payload[0] {
	case frameCommit:
		f.Commit, err = r.commitFrame()
	case frameSchema:
		var s core.Schema
		s, err = r.schema()
		if err == nil {
			f.Schema = &s
		}
	case frameCkptBegin:
		f.CkptBegin, err = r.ckptBeginFrame()
	case frameCkptRows:
		f.CkptRows, err = r.ckptRowsFrame()
	case frameCkptEnd:
		f.CkptEnd, err = r.ckptEndFrame()
	default:
		return Frame{}, 0, fmt.Errorf("wal: frame at %d: unknown type %d", off, payload[0])
	}
	if err != nil {
		return Frame{}, 0, fmt.Errorf("wal: frame at %d: %w", off, err)
	}
	if r.off != len(payload) {
		return Frame{}, 0, fmt.Errorf("wal: frame at %d: %d trailing bytes in payload", off, len(payload)-r.off)
	}
	return f, frameHeaderSize + int(plen), nil
}

// ScanLog walks the log from the start, decoding frames until the
// bytes stop parsing. It returns the decoded frames and validLen, the
// offset just past the last valid frame: the torn-tail rule keeps
// [0, validLen) and discards the rest. A fully valid log has
// validLen == len(b).
func ScanLog(b []byte) (frames []Frame, validLen int) {
	off := 0
	for off < len(b) {
		f, n, err := DecodeFrameAt(b, off)
		if err != nil {
			break
		}
		frames = append(frames, f)
		off += n
	}
	return frames, off
}
