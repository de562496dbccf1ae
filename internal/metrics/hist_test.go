package metrics

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"sicost/internal/core"
)

// within reports whether got is inside the histogram's error bound of
// want: less than one bucket width, i.e. a relative 1/histSub.
func within(got, want time.Duration) bool {
	return math.Abs(float64(got-want)) <= float64(want)/histSub
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.Mean() != 0 || s.Quantile(0.99) != 0 || s.Max() != 0 {
		t.Fatalf("empty snapshot not zero: count %d mean %v p99 %v max %v", s.Count, s.Mean(), s.Quantile(0.99), s.Max())
	}
	for _, d := range []time.Duration{time.Microsecond, 2 * time.Microsecond, 4 * time.Microsecond, time.Millisecond} {
		h.Record(d)
	}
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if s.Max() != time.Millisecond {
		t.Fatalf("max = %v, want 1ms", s.Max())
	}
	if m := s.Mean(); m != 251750*time.Nanosecond {
		t.Fatalf("mean = %v, want 251.75µs exactly", m)
	}
	if q := s.Quantile(0.5); !within(q, 2*time.Microsecond) {
		t.Fatalf("p50 = %v, want 2µs within 1/%d", q, histSub)
	}
	if q := s.Quantile(1.0); q != time.Millisecond {
		t.Fatalf("p100 = %v, want the max 1ms", q)
	}
}

// TestHistogramNearestRank: quantiles follow the nearest-rank rule of an
// exact recorder (the ceil(q·n)-th smallest sample), to within the
// bucket width; mean, count, and the two extremes are exact.
func TestHistogramNearestRank(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{50, 10, 40, 20, 30} {
		h.Record(d * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Mean() != 30*time.Millisecond {
		t.Fatalf("count %d mean %v, want 5 and 30ms", s.Count, s.Mean())
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0, 10}, {0.2, 10}, {0.21, 20}, {0.5, 30}, {0.8, 40}, {0.81, 50}} {
		if got := s.Quantile(c.q); !within(got, c.want*time.Millisecond) {
			t.Errorf("Quantile(%v) = %v, want %vms within 1/%d", c.q, got, int64(c.want), histSub)
		}
	}
	if got := s.Quantile(1); got != 50*time.Millisecond {
		t.Errorf("Quantile(1) = %v, want the max 50ms exactly", got)
	}
	// Below 2*histSub ns every value has its own bucket: exact.
	var small Histogram
	for d := time.Duration(1); d <= 2*histSub-1; d++ {
		small.Record(d)
	}
	if got := small.Snapshot().Quantile(0.5); got != histSub {
		t.Errorf("median of 1..%dns = %v, want %dns", 2*histSub-1, got, histSub)
	}
}

func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Record(-time.Second) // clamped to 0, bucket 0
	h.Record(0)
	h.Record(time.Duration(1) << 62) // beyond the last bucket boundary
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if s.Counts[0] != 2 || s.Counts[HistBuckets-1] != 1 {
		t.Fatalf("bucket spread wrong: first=%d last=%d", s.Counts[0], s.Counts[HistBuckets-1])
	}
	if q := s.Quantile(0.9); q != s.Max() {
		t.Fatalf("p90 = %v, want the max: the last bucket has no upper edge to interpolate to", q)
	}
	// Every bucket's bounds map back to it, and the buckets tile the range.
	for i := 0; i < HistBuckets; i++ {
		lo, hi := bucketBounds(i)
		if bucketOf(lo) != i || (i < HistBuckets-1 && (bucketOf(hi-1) != i || bucketOf(hi) != i+1)) {
			t.Fatalf("bucket %d = [%d, %d) does not round-trip", i, lo, hi)
		}
		if lo >= 2*histSub && float64(hi-lo) > float64(lo)/histSub && i < HistBuckets-1 {
			t.Fatalf("bucket %d = [%d, %d) wider than 1/%d of its values", i, lo, hi, histSub)
		}
	}
}

func TestHistogramDelta(t *testing.T) {
	var h Histogram
	h.Record(time.Millisecond)
	base := h.Snapshot()
	h.Record(time.Second)
	h.Record(time.Second)
	d := h.Snapshot().Delta(base)
	if d.Count != 2 {
		t.Fatalf("delta count = %d, want 2", d.Count)
	}
	if d.Mean() != time.Second {
		t.Fatalf("delta mean = %v, want 1s", d.Mean())
	}
}

// TestHistogramDeltaMaxIsTheWindows: a window that never saw the
// cumulative maximum (the bulk load's one-second commit, say) must not
// report it as its own.
func TestHistogramDeltaMaxIsTheWindows(t *testing.T) {
	var h Histogram
	h.Record(time.Second)
	base := h.Snapshot()
	for i := 0; i < 10; i++ {
		h.Record(time.Millisecond - time.Duration(i)*time.Microsecond)
	}
	cur := h.Snapshot()
	if cur.Max() != time.Second {
		t.Fatalf("cumulative max = %v, want 1s", cur.Max())
	}
	d := cur.Delta(base)
	if !within(d.Max(), time.Millisecond) {
		t.Fatalf("window max = %v, want about 1ms", d.Max())
	}
	if e := cur.Delta(cur); e.Max() != 0 || e.Count != 0 {
		t.Fatalf("empty window: max %v count %d, want zeros", e.Max(), e.Count)
	}
	// A window that does hold the cumulative maximum reports it exactly.
	h.Record(2 * time.Second)
	if d := h.Snapshot().Delta(cur); d.Max() != 2*time.Second {
		t.Fatalf("window max = %v, want the cumulative 2s", d.Max())
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(time.Duration(g*per+i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	const n = goroutines * per
	if want := uint64(n*(n-1)/2) * 1000; s.SumNanos != want || h.Sum() != time.Duration(want) {
		t.Fatalf("sum = %d (Sum() %v), want %d", s.SumNanos, h.Sum(), want)
	}
	want := time.Duration(goroutines*per-1) * time.Microsecond
	if s.Max() != want {
		t.Fatalf("max = %v, want %v (CAS loop must not lose the maximum)", s.Max(), want)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	h.Record(10 * time.Millisecond)
	h.Record(30 * time.Millisecond)
	snap := h.Snapshot()
	h.Record(50 * time.Millisecond) // must not leak into the snapshot
	if snap.Count != 2 {
		t.Fatalf("snapshot Count = %d, want 2", snap.Count)
	}
	if got := snap.Mean(); got != 20*time.Millisecond {
		t.Fatalf("snapshot Mean = %v, want 20ms", got)
	}
	if h.Count() != 3 {
		t.Fatalf("original Count = %d, want 3", h.Count())
	}
}

// TestHistogramMergeSnapshot: histograms recorded apart merge into what
// one histogram would have recorded.
func TestHistogramMergeSnapshot(t *testing.T) {
	var workers [4]Histogram
	var one Histogram
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func(h *Histogram) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				h.Record(time.Duration(j) * time.Microsecond)
				one.Record(time.Duration(j) * time.Microsecond)
			}
		}(&workers[i])
	}
	wg.Wait()
	var total HistSnapshot
	for i := range workers {
		total = total.Merge(workers[i].Snapshot())
	}
	if total.Count != 400 {
		t.Fatalf("merged Count = %d, want 400", total.Count)
	}
	if total != one.Snapshot() {
		t.Fatal("merge of four histograms differs from one histogram that recorded the same samples")
	}
}

// TestHistogramAccuracyProperty is the error bound as a property: over
// random sample sets spread log-uniformly across 100 ns – 10 s, every
// quantile is within one bucket width (relative 1/histSub) of the exact
// nearest-rank value of the sorted samples; Count and Mean are exact;
// Merge equals recording both sets into one histogram; and the Delta of
// a merge gives the other operand back.
func TestHistogramAccuracyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draw := func(n int, h ...*Histogram) []time.Duration {
		ds := make([]time.Duration, n)
		for i := range ds {
			ds[i] = time.Duration(100 * math.Pow(1e8, rng.Float64())) // 100ns .. 10s
			for _, h := range h {
				h.Record(ds[i])
			}
		}
		return ds
	}
	for round := 0; round < 50; round++ {
		var a, b, both Histogram
		as := draw(1+rng.Intn(2000), &a, &both)
		sa := a.Snapshot()

		sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
		var sum time.Duration
		for _, d := range as {
			sum += d
		}
		if sa.Count != uint64(len(as)) || sa.Mean() != sum/time.Duration(len(as)) || sa.Max() != as[len(as)-1] {
			t.Fatalf("round %d: count %d mean %v max %v, want %d, %v, %v",
				round, sa.Count, sa.Mean(), sa.Max(), len(as), sum/time.Duration(len(as)), as[len(as)-1])
		}
		for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1} {
			exact := as[max(int(math.Ceil(q*float64(len(as))))-1, 0)]
			if got := sa.Quantile(q); !within(got, exact) {
				t.Fatalf("round %d, %d samples: Quantile(%v) = %v, exact nearest-rank %v: off by more than 1/%d",
					round, len(as), q, got, exact, histSub)
			}
		}

		bs := draw(1+rng.Intn(2000), &b, &both)
		sb := b.Snapshot()
		merged := sa.Merge(sb)
		if merged != both.Snapshot() {
			t.Fatalf("round %d: merge(a, b) differs from recording a then b", round)
		}
		d := merged.Delta(sa)
		bmax := time.Duration(0)
		for _, x := range bs {
			bmax = max(bmax, x)
		}
		if d.Count != sb.Count || d.SumNanos != sb.SumNanos || d.Counts != sb.Counts || !within(d.Max(), bmax) {
			t.Fatalf("round %d: merge(a, b).Delta(a) is not b (count %d vs %d, max %v vs %v)",
				round, d.Count, sb.Count, d.Max(), bmax)
		}
	}
}

func TestAbortCounters(t *testing.T) {
	var a AbortCounters
	a.Inc(core.AbortSerialization)
	a.Inc(core.AbortSerialization)
	a.Inc(core.AbortDeadlock)
	a.Inc(core.AbortOther)
	a.Inc(core.AbortReason(200)) // out of range folds into AbortOther
	s := a.Snapshot()
	if s[core.AbortSerialization] != 2 || s[core.AbortDeadlock] != 1 || s[core.AbortOther] != 2 {
		t.Fatalf("counts wrong: %+v", s)
	}
	if s.Total() != 5 {
		t.Fatalf("total = %d, want 5", s.Total())
	}
	if s.Attributed() != 3 {
		t.Fatalf("attributed = %d, want 3", s.Attributed())
	}
	if r := s.AttributionRate(); r != 0.6 {
		t.Fatalf("attribution rate = %v, want 0.6", r)
	}
	var empty AbortSnapshot
	if empty.AttributionRate() != 1 {
		t.Fatal("empty attribution rate must be 1")
	}
	d := s.Delta(AbortSnapshot{core.AbortSerialization: 0, core.AbortDeadlock: 0})
	if d != s {
		t.Fatalf("delta against zero changed the vector: %+v", d)
	}
}

func TestTxnMetricsSnapshotDelta(t *testing.T) {
	var m TxnMetrics
	m.Commits.Add(3)
	m.Aborts.Inc(core.AbortWAL)
	m.CommitLatency.Record(time.Millisecond)
	base := m.Snapshot()
	m.Commits.Add(2)
	m.Aborts.Inc(core.AbortWAL)
	m.CommitLatency.Record(time.Microsecond)
	d := m.Snapshot().Delta(base)
	if d.Commits != 2 || d.Aborts[core.AbortWAL] != 1 || d.CommitLatency.Count != 1 || d.CommitLatency.Max() > 2*time.Microsecond {
		t.Fatalf("delta wrong: commits %d, wal aborts %d, commit latency count %d max %v",
			d.Commits, d.Aborts[core.AbortWAL], d.CommitLatency.Count, d.CommitLatency.Max())
	}
}

// TestHistogramMaxRace is the -race regression test for the maximum:
// it must be readable from a monitor goroutine while another records,
// never go backwards, and the final maximum must never be lost — a
// racing read-modify-write instead of the CAS loop could publish a
// stale, smaller one.
func TestHistogramMaxRace(t *testing.T) {
	var h Histogram
	const n = 5000
	done := make(chan struct{})
	go func() { // monitor: polls the maximum concurrently with the Records
		defer close(done)
		var last time.Duration
		for i := 0; i < n/10; i++ {
			m := h.Snapshot().Max()
			if m < last {
				t.Errorf("Max went backwards: %v after %v", m, last)
				return
			}
			last = m
		}
	}()
	for i := 1; i <= n; i++ {
		h.Record(time.Duration(i))
	}
	<-done
	snap := h.Snapshot()
	if snap.Max() != time.Duration(n) {
		t.Fatalf("max = %v, want %v", snap.Max(), time.Duration(n))
	}
	var small Histogram
	small.Record(7 * time.Nanosecond)
	if m := small.Snapshot().Merge(snap).Max(); m != time.Duration(n) {
		t.Fatalf("merged max = %v, want %v", m, time.Duration(n))
	}
}
