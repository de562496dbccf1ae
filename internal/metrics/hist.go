package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"sicost/internal/core"
)

// HistBuckets is the bucket count of Histogram: fixed power-of-two
// boundaries from 1ns up, HDR-style (constant relative error, here one
// significant bit). Bucket i counts durations in [2^i, 2^(i+1)) ns;
// bucket 0 also absorbs sub-nanosecond samples and the last bucket
// absorbs everything above ~1.5 days, so no sample is ever dropped.
const HistBuckets = 48

// Histogram is a concurrent, allocation-free latency histogram with
// fixed log-spaced buckets. Unlike LatencyRecorder (exact samples,
// single-owner), Histogram is safe for concurrent Record from many
// goroutines — every field is atomic — which is what the engine's hot
// paths need: recording is a few atomic adds plus one CAS loop for the
// maximum, and reading is always a consistent-enough Snapshot.
//
// The zero value is ready to use.
type Histogram struct {
	count    atomic.Uint64
	sumNanos atomic.Uint64
	// maxNanos is maintained with a CAS loop so concurrent recorders
	// cannot lose a maximum to a blind store race.
	maxNanos atomic.Int64
	counts   [HistBuckets]atomic.Uint64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	n := d.Nanoseconds()
	if n < 1 {
		return 0
	}
	b := bits.Len64(uint64(n)) - 1
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// Record adds one duration sample. Safe for concurrent use.
func (h *Histogram) Record(d time.Duration) {
	n := d.Nanoseconds()
	if n < 0 {
		n = 0
	}
	h.count.Add(1)
	h.sumNanos.Add(uint64(n))
	h.counts[bucketOf(d)].Add(1)
	for {
		cur := h.maxNanos.Load()
		if n <= cur || h.maxNanos.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot returns a point-in-time copy of the histogram. Concurrent
// Records may land between field loads; the snapshot is monotone (each
// counter individually consistent), which is all windowed deltas need.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Count:    h.count.Load(),
		SumNanos: h.sumNanos.Load(),
		MaxNanos: h.maxNanos.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistSnapshot is an immutable copy of a Histogram, diffable between
// run phases (ramp-up vs measurement) via Delta.
type HistSnapshot struct {
	Count    uint64
	SumNanos uint64
	MaxNanos int64
	Counts   [HistBuckets]uint64
}

// Delta returns s minus an earlier snapshot prev, counter-wise. The
// maximum is not diffable; Delta keeps s's maximum, which upper-bounds
// the window's true maximum.
func (s HistSnapshot) Delta(prev HistSnapshot) HistSnapshot {
	d := HistSnapshot{
		Count:    s.Count - prev.Count,
		SumNanos: s.SumNanos - prev.SumNanos,
		MaxNanos: s.MaxNanos,
	}
	for i := range s.Counts {
		d.Counts[i] = s.Counts[i] - prev.Counts[i]
	}
	return d
}

// Mean returns the average sample (0 when empty).
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNanos / s.Count)
}

// Max returns the largest sample seen (0 when empty).
func (s HistSnapshot) Max() time.Duration { return time.Duration(s.MaxNanos) }

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1) by locating
// the bucket containing the target rank and interpolating linearly
// inside it. The estimate's relative error is bounded by the bucket
// width (a factor of two).
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	cum := 0.0
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		if cum+float64(c) >= rank {
			frac := (rank - cum) / float64(c)
			est := float64(lo) + frac*float64(hi-lo)
			if m := float64(s.MaxNanos); est > m && m > 0 {
				est = m
			}
			return time.Duration(est)
		}
		cum += float64(c)
	}
	return time.Duration(s.MaxNanos)
}

// bucketBounds returns bucket i's [lo, hi) nanosecond range.
func bucketBounds(i int) (lo, hi int64) {
	lo = int64(1) << uint(i)
	if i == 0 {
		lo = 0
	}
	if i >= 62 {
		return lo, math.MaxInt64
	}
	return lo, int64(1) << uint(i+1)
}

// NumAbortReasons sizes the abort-taxonomy counter array: one slot per
// core.AbortReason value (AbortNone..AbortOther).
const NumAbortReasons = int(core.AbortOther) + 1

// AbortCounters counts transaction aborts by taxonomy reason
// (core.ClassifyAbort). Safe for concurrent use.
type AbortCounters struct {
	counts [NumAbortReasons]atomic.Uint64
}

// Inc counts one abort of the given reason; out-of-range reasons are
// folded into AbortOther so no abort is ever unaccounted.
func (a *AbortCounters) Inc(r core.AbortReason) {
	i := int(r)
	if i < 0 || i >= NumAbortReasons {
		i = int(core.AbortOther)
	}
	a.counts[i].Add(1)
}

// Snapshot copies the counters.
func (a *AbortCounters) Snapshot() AbortSnapshot {
	var s AbortSnapshot
	for i := range a.counts {
		s[i] = a.counts[i].Load()
	}
	return s
}

// AbortSnapshot is an immutable abort-taxonomy count vector, indexed by
// core.AbortReason.
type AbortSnapshot [NumAbortReasons]uint64

// Delta returns s minus prev, counter-wise.
func (s AbortSnapshot) Delta(prev AbortSnapshot) AbortSnapshot {
	var d AbortSnapshot
	for i := range s {
		d[i] = s[i] - prev[i]
	}
	return d
}

// Total sums aborts across every reason except AbortNone (which counts
// voluntary rollbacks of transactions that never failed).
func (s AbortSnapshot) Total() uint64 {
	var n uint64
	for i, v := range s {
		if i == int(core.AbortNone) {
			continue
		}
		n += v
	}
	return n
}

// Attributed returns how many aborts carry a specific taxonomy reason —
// everything except AbortNone and AbortOther.
func (s AbortSnapshot) Attributed() uint64 {
	return s.Total() - s[core.AbortOther]
}

// AttributionRate is Attributed/Total (1 when there were no aborts):
// the fraction of aborts the taxonomy explains. The observability story
// (docs/OBSERVABILITY.md) treats ≥0.95 as healthy.
func (s AbortSnapshot) AttributionRate() float64 {
	t := s.Total()
	if t == 0 {
		return 1
	}
	return float64(s.Attributed()) / float64(t)
}

// TxnMetrics bundles the engine-side transaction metrics: commit and
// abort counts by taxonomy reason, the lock-wait time distribution and
// the updating-commit latency distribution. One instance lives in each
// engine.DB; every field is concurrent-safe.
type TxnMetrics struct {
	// Commits counts committed transactions (read-only included).
	Commits atomic.Uint64
	// Aborts is the abort taxonomy (core.ClassifyAbort classes).
	Aborts AbortCounters
	// LockWait is the distribution of row-lock wait times (blocked
	// acquires only; the fast path records nothing).
	LockWait Histogram
	// CommitLatency is the distribution of updating-commit durations
	// (WAL wait + stamping + publication).
	CommitLatency Histogram
}

// Snapshot copies every counter; snapshots from two phases of a run
// diff with Delta.
func (m *TxnMetrics) Snapshot() TxnSnapshot {
	return TxnSnapshot{
		Commits:       m.Commits.Load(),
		Aborts:        m.Aborts.Snapshot(),
		LockWait:      m.LockWait.Snapshot(),
		CommitLatency: m.CommitLatency.Snapshot(),
	}
}

// TxnSnapshot is an immutable copy of TxnMetrics.
type TxnSnapshot struct {
	Commits       uint64
	Aborts        AbortSnapshot
	LockWait      HistSnapshot
	CommitLatency HistSnapshot
}

// Delta returns s minus an earlier snapshot prev.
func (s TxnSnapshot) Delta(prev TxnSnapshot) TxnSnapshot {
	return TxnSnapshot{
		Commits:       s.Commits - prev.Commits,
		Aborts:        s.Aborts.Delta(prev.Aborts),
		LockWait:      s.LockWait.Delta(prev.LockWait),
		CommitLatency: s.CommitLatency.Delta(prev.CommitLatency),
	}
}
