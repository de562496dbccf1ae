package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// transaction share trace (the transaction's sequence number) and hang
// under a per-transaction root through parent.
type span struct {
	trace, id, parent uint32
	layer, name       string
	start, end        int64 // ns since the tracer's epoch
}

// tracer collects one goroutine's spans in memory; they are written out
// when the workload ends. Nothing here locks: each client owns its own.
type tracer struct {
	epoch  time.Time
	spans  []span
	nextID uint32
}

// newTracer gives owner its own id space, so ids stay unique when the
// clients' spans are merged into one file.
func newTracer(owner uint32, epoch time.Time, sizeHint int) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, sizeHint), nextID: owner<<28 + 1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open starts a span and returns its index; close ends it.
func (t *tracer) open(trace, parent uint32, layer, name string) int {
	id := t.nextID
	t.nextID++
	t.spans = append(t.spans, span{trace: trace, id: id, parent: parent, layer: layer, name: name, start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) close(i int) { t.spans[i].end = t.now() }

// add records a span whose bounds were read by the caller.
func (t *tracer) add(trace, parent uint32, layer, name string, start, end int64) {
	id := t.nextID
	t.nextID++
	t.spans = append(t.spans, span{trace, id, parent, layer, name, start, end})
}

func (t *tracer) id(i int) uint32 { return t.spans[i].id }

// durations groups span lengths by "layer.name".
func durations(spans []span) map[string][]int64 {
	out := map[string][]int64{}
	for _, s := range spans {
		k := s.layer + "." + s.name
		out[k] = append(out[k], s.end-s.start)
	}
	return out
}

// writeTrace writes spans as JSON lines,
// {"trace","id","parent","layer","name","start_ns","end_ns"}.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	for _, s := range spans {
		b = append(b[:0], `{"trace":`...)
		b = strconv.AppendUint(b, uint64(s.trace), 10)
		b = append(b, `,"id":`...)
		b = strconv.AppendUint(b, uint64(s.id), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, uint64(s.parent), 10)
		b = append(b, `,"layer":"`...)
		b = append(b, s.layer...)
		b = append(b, `","name":"`...)
		b = append(b, s.name...)
		b = append(b, `","start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, "}\n"...)
		w.Write(b) // the error, if any, is sticky and surfaces at Flush
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
