package wal

import (
	"fmt"
	"sort"

	"sicost/internal/core"
)

// RecoveryInfo is the classified result of scanning a log device: the
// snapshot to start from, the redo work after it, and what the scan
// discarded.
type RecoveryInfo struct {
	// Checkpoint is the snapshot to restore: the newest complete
	// checkpoint in the valid prefix. A torn or incomplete last
	// checkpoint does not count — recovery falls back to the one before
	// it. Nil when the log holds no complete checkpoint.
	Checkpoint *Checkpoint
	// Schemas are the table definitions in effect: every schema frame
	// in the valid prefix, deduplicated by table name (last wins),
	// merged with the schemas embedded in the checkpoint.
	Schemas []core.Schema
	// Commits are the redo records to replay: every commit frame whose
	// CSN is beyond the checkpoint, sorted by CSN. The begin marker is
	// queued in CSN order with the commits (engine.DB.Checkpoint), so
	// the commits in front of it are exactly those at or below the cut:
	// CSN filtering and log-position filtering agree.
	Commits []*CommitFrame
	// HighCSN is the recovered commit-sequence high-water mark; the
	// restarted sequencer continues from HighCSN+1.
	HighCSN uint64
	// Frames counts all valid frames scanned (checkpoint frames, schemas
	// and commits, including commits the checkpoint already covers).
	Frames int
	// ValidBytes is the length of the valid prefix; TornBytes is what
	// the torn-tail rule discarded (0 for a clean log).
	ValidBytes int
	TornBytes  int
	// Repaired reports that the device was truncated to the valid
	// prefix, so a second recovery sees a clean log.
	Repaired bool
	// Segments is the number of live segments scanned.
	Segments int
}

// Recover scans dev, validates the segment layout, applies the
// torn-tail rule, and — when a torn or corrupt tail was found — repairs
// the device by truncating it to the valid prefix, so recovery is
// idempotent at the byte level too. It performs no database
// reconstruction; engine.Recover layers that on top.
func Recover(dev LogDevice) (*RecoveryInfo, error) {
	segs, err := dev.Segments()
	if err != nil {
		return nil, fmt.Errorf("wal: recover: %w", err)
	}
	info, err := ClassifySegments(segs)
	if err != nil {
		return nil, fmt.Errorf("wal: recover: %w", err)
	}
	if info.TornBytes > 0 {
		if err := dev.TruncateTail(int64(info.ValidBytes)); err != nil {
			return nil, fmt.Errorf("wal: recover: torn-tail repair: %w", err)
		}
		info.Repaired = true
	}
	return info, nil
}

// ClassifySegments validates a segmented log layout and classifies the
// concatenated stream. The layout rules are strict: segment indices
// must be contiguous (a missing middle segment means durable history is
// gone — that is unrecoverable corruption, not a torn tail), and a torn
// or corrupt tail may only begin inside the final segment. A frame that
// straddles a segment boundary is fine — recovery scans the
// concatenation — because rotation seals segments between appends, not
// mid-frame; a torn frame in a *sealed* segment could only come from
// bit rot or truncation of supposedly immutable data, so it is rejected
// rather than repaired.
func ClassifySegments(segs []SegmentData) (*RecoveryInfo, error) {
	if len(segs) == 0 {
		info := Classify(nil)
		return info, nil
	}
	sorted := append([]SegmentData(nil), segs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Index == sorted[i-1].Index {
			return nil, fmt.Errorf("wal: duplicate segment %s", SegmentName(sorted[i].Index))
		}
		if sorted[i].Index != sorted[i-1].Index+1 {
			return nil, fmt.Errorf("wal: segment sequence broken: %s missing (have %s and %s)",
				SegmentName(sorted[i-1].Index+1), SegmentName(sorted[i-1].Index), SegmentName(sorted[i].Index))
		}
	}
	var all []byte
	lastStart := 0
	for i, s := range sorted {
		if i == len(sorted)-1 {
			lastStart = len(all)
		}
		all = append(all, s.Data...)
	}
	info := Classify(all)
	if info.TornBytes > 0 && info.ValidBytes < lastStart {
		return nil, fmt.Errorf("wal: corrupt frame in sealed segment %s (valid prefix %d ends before final segment at %d)",
			SegmentName(sorted[torn(sorted, info.ValidBytes)].Index), info.ValidBytes, lastStart)
	}
	info.Segments = len(sorted)
	return info, nil
}

// lastCheckpoint returns the newest complete checkpoint in the frame
// stream, nil when there is none. The scan keeps the newest complete
// checkpoint and a pending one between a begin marker and its end
// marker. A checkpoint is complete only when its end marker matches the
// open begin's cut AND its row count; anything else (a torn tail inside
// it, a new begin abandoning the old, a mismatched end) discards the
// pending one, so recovery falls back to the previous complete
// checkpoint — never a partial one. Rows batches bind to the pending
// checkpoint by cut; unbound batches are ignored (fuzz inputs; a healthy
// engine never interleaves checkpoints).
func lastCheckpoint(frames []Frame) *Checkpoint {
	var last, pending *Checkpoint
	for i := range frames {
		f := &frames[i]
		switch {
		case f.CkptBegin != nil:
			pending = &Checkpoint{CSN: f.CkptBegin.CSN, Schemas: f.CkptBegin.Schemas}
		case f.CkptRows != nil:
			if pending != nil && f.CkptRows.CSN == pending.CSN {
				pending.Rows = append(pending.Rows, f.CkptRows.Rows...)
			}
		case f.CkptEnd != nil:
			if pending != nil && f.CkptEnd.CSN == pending.CSN && f.CkptEnd.Rows == uint64(len(pending.Rows)) {
				last = pending
			}
			pending = nil
		}
	}
	return last
}

// torn returns the position (in sorted order) of the segment containing
// byte offset off of the concatenation.
func torn(sorted []SegmentData, off int) int {
	at := 0
	for i, s := range sorted {
		if off < at+len(s.Data) {
			return i
		}
		at += len(s.Data)
	}
	return len(sorted) - 1
}

// Classify scans a raw log image and organizes its valid prefix into a
// RecoveryInfo without touching any device. The fuzz target calls it
// directly with arbitrary bytes.
func Classify(b []byte) *RecoveryInfo {
	frames, validLen := ScanLog(b)
	info := &RecoveryInfo{
		Frames:     len(frames),
		ValidBytes: validLen,
		TornBytes:  len(b) - validLen,
	}

	// The snapshot to restore: the newest complete checkpoint.
	info.Checkpoint = lastCheckpoint(frames)
	cut := uint64(0)
	if info.Checkpoint != nil {
		cut = info.Checkpoint.CSN
		info.HighCSN = cut
	}

	// Schemas: checkpoint-embedded first, then standalone schema
	// frames; last definition of a name wins.
	byName := map[string]int{}
	addSchema := func(s core.Schema) {
		if i, ok := byName[s.Name]; ok {
			info.Schemas[i] = s
			return
		}
		byName[s.Name] = len(info.Schemas)
		info.Schemas = append(info.Schemas, s)
	}
	if info.Checkpoint != nil {
		for _, sc := range info.Checkpoint.Schemas {
			addSchema(sc)
		}
	}
	for _, f := range frames {
		if f.Schema != nil {
			addSchema(*f.Schema)
		}
	}

	for _, f := range frames {
		if f.Commit == nil {
			continue
		}
		if f.Commit.CSN <= cut {
			continue // already captured by the checkpoint snapshot
		}
		info.Commits = append(info.Commits, f.Commit)
		if f.Commit.CSN > info.HighCSN {
			info.HighCSN = f.Commit.CSN
		}
	}
	sort.SliceStable(info.Commits, func(i, j int) bool {
		return info.Commits[i].CSN < info.Commits[j].CSN
	})
	return info
}
