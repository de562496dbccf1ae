package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"sicost/internal/core"
)

// The bucket layout of Histogram is log-linear, HDR-style: every power
// of two is cut into histSub equal sub-buckets, so a bucket is never
// wider than 1/histSub of the values it holds. Durations below
// 2*histSub ns have a bucket each (exact); a duration n at or above
// that, with top bit e, falls in the bucket of width 2^(e-histSubBits)
// that its top histSubBits+1 bits select. The layout reaches
// 2^histMaxBits ns (about 18 minutes); the last bucket also absorbs
// everything longer and negative samples count as 0, so no sample is
// ever dropped.
//
// Error bound: Quantile answers from inside the bucket that holds the
// exact nearest-rank sample, so it is off by less than one bucket
// width — a relative error below 1/histSub = 1/64 (1.6 %), and zero
// below 128 ns. Count, Mean (the sum is kept apart) and the cumulative
// Max are exact. 64 sub-buckets, not 32: TestMPL1LogWaitClosedForm
// takes the ratio of two medians with 0.02 to spare, which two errors
// of 1/32 would use up.
const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histMaxBits = 40
	// HistBuckets is the bucket count of Histogram: 2*histSub exact
	// buckets, then histSub for every further power of two.
	HistBuckets = (histMaxBits - histSubBits + 1) * histSub
)

// Histogram is a concurrent, allocation-free latency histogram with
// fixed log-linear buckets. It is safe for concurrent Record from many
// goroutines — every field is atomic — which is what the engine's hot
// paths and the workload driver's clients need: recording is three
// atomic adds plus one CAS loop for the maximum, and reading is always
// a consistent-enough Snapshot.
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

// bucketOf maps a non-negative nanosecond count to its bucket index.
func bucketOf(n int64) int {
	shift := bits.Len64(uint64(n)) - 1 - histSubBits
	if shift <= 0 {
		return int(n)
	}
	if i := shift<<histSubBits + int(n>>uint(shift)); i < HistBuckets {
		return i
	}
	return HistBuckets - 1
}

// bucketBounds returns bucket i's [lo, hi) nanosecond range; the last
// bucket has no upper edge.
func bucketBounds(i int) (lo, hi int64) {
	shift := i>>histSubBits - 1
	if shift <= 0 {
		return int64(i), int64(i) + 1
	}
	lo = int64(i&(histSub-1)+histSub) << uint(shift)
	if i == HistBuckets-1 {
		return lo, math.MaxInt64
	}
	return lo, lo + int64(1)<<uint(shift)
}

// Record adds one duration sample. Safe for concurrent use.
func (h *Histogram) Record(d time.Duration) {
	n := d.Nanoseconds()
	if n < 0 {
		n = 0
	}
	h.count.Add(1)
	h.sumNanos.Add(uint64(n))
	h.counts[bucketOf(n)].Add(1)
	for {
		cur := h.maxNanos.Load()
		if n <= cur || h.maxNanos.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of the recorded samples.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNanos.Load()) }

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

// HistSnapshot is an immutable copy of a Histogram: diffable between
// run phases (ramp-up vs measurement) via Delta, and addable across
// histograms via Merge.
type HistSnapshot struct {
	Count    uint64
	SumNanos uint64
	MaxNanos int64
	Counts   [HistBuckets]uint64
}

// Delta returns s minus an earlier snapshot prev, counter-wise. The
// maximum is not diffable, but the window's buckets bound it: the
// delta's maximum is the upper edge of its highest non-empty bucket,
// capped by s's cumulative maximum — within one bucket width of the
// window's true maximum, and never a sample from before prev.
func (s HistSnapshot) Delta(prev HistSnapshot) HistSnapshot {
	d := HistSnapshot{
		Count:    s.Count - prev.Count,
		SumNanos: s.SumNanos - prev.SumNanos,
	}
	for i := range s.Counts {
		d.Counts[i] = s.Counts[i] - prev.Counts[i]
		if d.Counts[i] > 0 {
			_, hi := bucketBounds(i)
			d.MaxNanos = min(hi-1, s.MaxNanos)
		}
	}
	return d
}

// Merge returns the histogram of s's and o's samples together: what
// one Histogram would hold had it recorded both.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	s.Count += o.Count
	s.SumNanos += o.SumNanos
	s.MaxNanos = max(s.MaxNanos, o.MaxNanos)
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	return s
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

// Quantile returns the q-quantile (0 ≤ q ≤ 1; 0 when empty) by nearest
// rank: it locates the bucket holding the ceil(q·Count)-th smallest
// sample and interpolates linearly inside it, never past Max. The
// answer is within one bucket width of that sample (see the layout
// comment for the bound); the largest sample is Max itself.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(max(math.Ceil(q*float64(s.Count)), 1))
	if rank >= s.Count {
		return s.Max()
	}
	var cum uint64
	for i, c := range s.Counts {
		if cum+c < rank {
			cum += c
			continue
		}
		// The bucket's c samples sit, for all the histogram knows,
		// evenly across it: the k-th of them at (k - 1/2)/c of the way.
		lo, hi := bucketBounds(i)
		frac := (float64(rank-cum) - 0.5) / float64(c)
		est := float64(lo) + frac*float64(hi-lo)
		return time.Duration(min(est, float64(s.MaxNanos)))
	}
	return time.Duration(s.MaxNanos)
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

// TxnMetrics holds the transaction metrics the engine itself records:
// commit and abort counts by taxonomy reason and the updating-commit
// latency distribution. One instance lives in each engine.DB; every
// field is concurrent-safe.
type TxnMetrics struct {
	// Commits counts committed transactions (read-only included).
	Commits atomic.Uint64
	// Aborts is the abort taxonomy (core.ClassifyAbort classes).
	Aborts AbortCounters
	// CommitLatency is the distribution of updating-commit durations
	// (WAL wait + stamping + publication).
	CommitLatency Histogram
}

// Snapshot copies every counter; snapshots from two phases of a run
// diff with Delta. LockWait is left empty: the lock table records its
// own waits, and engine.DB.TxnMetrics fills the field in from there.
func (m *TxnMetrics) Snapshot() TxnSnapshot {
	return TxnSnapshot{
		Commits:       m.Commits.Load(),
		Aborts:        m.Aborts.Snapshot(),
		CommitLatency: m.CommitLatency.Snapshot(),
	}
}

// TxnSnapshot is an immutable copy of the engine-side transaction
// metrics (engine.DB.TxnMetrics).
type TxnSnapshot struct {
	Commits uint64
	Aborts  AbortSnapshot
	// LockWait is the distribution of row-lock wait times (blocked
	// acquires only; the fast path records nothing).
	LockWait      HistSnapshot
	CommitLatency HistSnapshot
}

// Merge returns the counts of s and o together.
func (s TxnSnapshot) Merge(o TxnSnapshot) TxnSnapshot {
	s.Commits += o.Commits
	for i := range s.Aborts {
		s.Aborts[i] += o.Aborts[i]
	}
	s.LockWait = s.LockWait.Merge(o.LockWait)
	s.CommitLatency = s.CommitLatency.Merge(o.CommitLatency)
	return s
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
