// Command walinspect dumps and validates a write-ahead-log image: it
// scans the frame stream (length + CRC32C framing, see internal/wal),
// reports the classification recovery would act on — the newest
// complete checkpoint, schemas in effect, redo commits, CSN high-water
// mark — and flags a torn or corrupt tail. With -repair it truncates
// the log to the valid prefix, exactly what engine recovery would do.
//
// The argument is a log directory of wal.NNNN segments (what
// cmd/smallbank -wal writes): it is validated as a segmented layout —
// contiguous indices, no corruption in sealed segments — and classified
// as the concatenated stream, with frames allowed to straddle segment
// boundaries. A single segment file (a copied one, say) is accepted
// too, as a read-only dump: -repair needs the directory.
//
// Checkpoints appear as ckpt-begin/ckpt-rows/ckpt-end frame triples; the
// classification reports the newest complete one, the one recovery
// restores.
//
// Usage:
//
//	walinspect waldir/           # validate + classify wal.NNNN files
//	walinspect -frames waldir/   # additionally dump every frame
//	walinspect -repair waldir/   # truncate the torn tail across segments
//	walinspect waldir/wal.0003   # read-only dump of one segment file
//
// Exit status is 1 on a torn tail left unrepaired, 2 on usage, I/O or
// segment-layout errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"sicost/internal/wal"
)

func main() {
	var (
		frames = flag.Bool("frames", false, "dump every decoded frame")
		repair = flag.Bool("repair", false, "truncate a torn tail in place (log directory only)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: walinspect [-frames] [-repair] <segmentdir|segmentfile>")
		os.Exit(2)
	}
	os.Exit(run(flag.Arg(0), options{frames: *frames, repair: *repair}, os.Stdout, os.Stderr))
}

type options struct {
	frames, repair bool
}

// run inspects the log at path and returns the exit status. Layout
// errors (index gaps, duplicates, corruption inside a sealed segment)
// are fatal; a torn tail in the LAST segment is repairable, truncated
// across segments with -repair.
func run(path string, o options, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "walinspect:", err)
		return 2
	}
	st, err := os.Stat(path)
	if err != nil {
		return fail(err)
	}
	var segs []wal.SegmentData
	switch {
	case !st.IsDir() && o.repair:
		return fail(fmt.Errorf("%s is a single segment file, dumped read-only: -repair needs the log directory of wal.NNNN segments", path))
	case !st.IsDir():
		b, err := os.ReadFile(path)
		if err != nil {
			return fail(err)
		}
		idx, _ := wal.ParseSegmentName(filepath.Base(path))
		segs = []wal.SegmentData{{Index: idx, Data: b}}
	default:
		if segs, err = readSegments(path); err != nil {
			return fail(err)
		}
		if len(segs) == 0 {
			return fail(fmt.Errorf("%s: no wal.NNNN segments", path))
		}
	}
	info, err := wal.ClassifySegments(segs)
	if err != nil {
		return fail(err)
	}
	var all []byte
	for _, s := range segs {
		all = append(all, s.Data...)
	}
	fmt.Fprintf(stdout, "%s: %d segments, %d bytes, %d valid frames in %d bytes\n",
		path, info.Segments, len(all), info.Frames, info.ValidBytes)
	printSegmentSpans(stdout, segs, all)
	if o.frames {
		dumpFrames(stdout, all)
	}
	printClassification(stdout, info)

	if info.TornBytes == 0 {
		fmt.Fprintln(stdout, "tail: clean")
		return 0
	}
	fmt.Fprintf(stdout, "tail: TORN — %d bytes past stream offset %d do not decode\n", info.TornBytes, info.ValidBytes)
	if !o.repair {
		if st.IsDir() {
			fmt.Fprintln(stdout, "run with -repair to truncate to the valid prefix")
		}
		return 1
	}
	sl, err := wal.OpenSegmentLog(path, 1<<30)
	if err != nil {
		return fail(fmt.Errorf("repair: %w", err))
	}
	err = sl.TruncateTail(int64(info.ValidBytes))
	sl.Close()
	if err != nil {
		return fail(fmt.Errorf("repair: %w", err))
	}
	fmt.Fprintf(stdout, "repaired: truncated to %d bytes\n", info.ValidBytes)
	return 0
}

// printClassification prints the recovery-relevant view of a classified
// log: checkpoint, schemas, redo span and CSN high-water mark.
func printClassification(w io.Writer, info *wal.RecoveryInfo) {
	if ck := info.Checkpoint; ck != nil {
		fmt.Fprintf(w, "checkpoint: CSN %d, %d tables, %d rows\n", ck.CSN, len(ck.Schemas), len(ck.Rows))
	} else {
		fmt.Fprintln(w, "checkpoint: none (recovery replays the full log)")
	}
	for _, s := range info.Schemas {
		fmt.Fprintf(w, "schema: %s (%d columns, %d unique indexes)\n", s.Name, len(s.Columns), len(s.Unique))
	}
	if n := len(info.Commits); n > 0 {
		fmt.Fprintf(w, "redo: %d commits, CSN %d..%d\n", n, info.Commits[0].CSN, info.Commits[n-1].CSN)
	} else {
		fmt.Fprintln(w, "redo: no commits beyond the checkpoint")
	}
	fmt.Fprintf(w, "high-water CSN: %d\n", info.HighCSN)
}

// readSegments loads every wal.NNNN file of dir, sorted by index.
func readSegments(dir string) ([]wal.SegmentData, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []wal.SegmentData
	for _, e := range entries {
		idx, ok := wal.ParseSegmentName(e.Name())
		if !ok {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		segs = append(segs, wal.SegmentData{Index: idx, Data: b})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Index < segs[j].Index })
	return segs, nil
}

// printSegmentSpans prints one line per segment with the commit-CSN
// range of the frames that START inside it — which commits retiring a
// segment drops from the log. Frames are decoded from the concatenation
// all (they may straddle boundaries) and attributed to the segment
// holding their first byte.
func printSegmentSpans(w io.Writer, segs []wal.SegmentData, all []byte) {
	starts := make([]int, len(segs))
	for i := 1; i < len(segs); i++ {
		starts[i] = starts[i-1] + len(segs[i-1].Data)
	}
	type span struct{ lo, hi uint64 }
	spans := make([]span, len(segs))
	seg := 0
	for off := 0; off < len(all); {
		f, n, err := wal.DecodeFrameAt(all, off)
		if err != nil {
			break
		}
		for seg+1 < len(segs) && off >= starts[seg+1] {
			seg++
		}
		if f.Commit != nil {
			sp := &spans[seg]
			if sp.lo == 0 || f.Commit.CSN < sp.lo {
				sp.lo = f.Commit.CSN
			}
			if f.Commit.CSN > sp.hi {
				sp.hi = f.Commit.CSN
			}
		}
		off += n
	}
	for i, s := range segs {
		if spans[i].lo == 0 {
			fmt.Fprintf(w, "  %s: %d bytes, no commits\n", wal.SegmentName(s.Index), len(s.Data))
			continue
		}
		fmt.Fprintf(w, "  %s: %d bytes, commits CSN %d..%d\n",
			wal.SegmentName(s.Index), len(s.Data), spans[i].lo, spans[i].hi)
	}
}

// dumpFrames walks the log and prints one line per decodable frame.
func dumpFrames(w io.Writer, b []byte) {
	off := 0
	for i := 0; ; i++ {
		f, n, err := wal.DecodeFrameAt(b, off)
		if err != nil {
			return
		}
		switch {
		case f.Commit != nil:
			fmt.Fprintf(w, "  [%d] @%d commit tx=%d csn=%d rows=%d (%d bytes)\n",
				i, off, f.Commit.TxID, f.Commit.CSN, len(f.Commit.Rows), n)
		case f.Schema != nil:
			fmt.Fprintf(w, "  [%d] @%d schema %s (%d bytes)\n", i, off, f.Schema.Name, n)
		case f.CkptBegin != nil:
			fmt.Fprintf(w, "  [%d] @%d ckpt-begin csn=%d schemas=%d (%d bytes)\n",
				i, off, f.CkptBegin.CSN, len(f.CkptBegin.Schemas), n)
		case f.CkptRows != nil:
			fmt.Fprintf(w, "  [%d] @%d ckpt-rows csn=%d rows=%d (%d bytes)\n",
				i, off, f.CkptRows.CSN, len(f.CkptRows.Rows), n)
		case f.CkptEnd != nil:
			fmt.Fprintf(w, "  [%d] @%d ckpt-end csn=%d rows=%d (%d bytes)\n",
				i, off, f.CkptEnd.CSN, f.CkptEnd.Rows, n)
		}
		off += n
	}
}
