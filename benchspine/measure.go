package main

import (
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"sicost/internal/smallbank"
)

// sliceLen is the length of one slice of a measure window. The window
// is cut into consecutive slices of one second, every end-to-end figure
// is computed per slice, and what is reported is the median of the
// slices. A burst of a noisy neighbour, a long collection or a
// checkpoint pause then moves the figure only if it takes more than
// half of the seconds of the window, while work the program does every
// second stays in it. README.md, "Noise protocol", has the measurements.
const sliceLen = time.Second

// slicing returns how many whole slices a window of the given length
// has and how long each is; a window shorter than sliceLen is one slice.
// What is left after the last whole slice belongs to no slice.
func slicing(length time.Duration) (n int, each time.Duration) {
	if length < sliceLen {
		return 1, length
	}
	return int(length / sliceLen), sliceLen
}

// txnRunner executes logical transactions for one closed-loop client.
type txnRunner interface {
	// runTxn runs one transaction to its final outcome, retriable
	// aborts rerun immediately up to maxRetries. tr is nil outside the
	// traced pass; seq identifies the transaction in the trace.
	runTxn(in txnInput, tr *tracer, seq uint32) outcome
}

// sample is one committed transaction of the measure window.
type sample struct {
	latNS uint32 // first BEGIN to acknowledged COMMIT, retries included
	slice uint16 // slicing's n for the remainder after the last whole slice
	typ   uint8
}

// clientRec is what one client goroutine saw during the measure window.
type clientRec struct {
	samples      []sample
	attempted    int
	failed       int
	appRollbacks int
}

func saturate(d time.Duration) uint32 {
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	if d < 0 {
		return 0
	}
	return uint32(d)
}

// windowResult is one window's client-side outcome.
type windowResult struct {
	planned      time.Duration
	actual       time.Duration // shorter than planned when the span cap cut the window
	recs         []clientRec
	tracers      []*tracer
	attempted    int
	failed       int
	appRollbacks int
	commits      int
}

// drive runs one window of the closed loop: every client in its own
// goroutine, no think time, the next transaction sent as soon as the
// previous one is acknowledged. A transaction counts if it ends inside
// the window. A positive maxSpans makes it a traced window: each client
// gets a tracer and stops early once it holds that many spans. drive
// returns once all clients have stopped.
func drive(runners []txnRunner, gens []*generator, length time.Duration, maxSpans int) *windowResult {
	res := &windowResult{planned: length, actual: length,
		recs: make([]clientRec, len(runners)), tracers: make([]*tracer, len(runners))}
	start := time.Now()
	end := start.Add(length)
	nSlices, each := slicing(length)
	lastEnd := make([]time.Time, len(runners))

	var wg sync.WaitGroup
	for i := range runners {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, g, rec := runners[i], gens[i], &res.recs[i]
			rec.samples = make([]sample, 0, 1<<20)
			var tr *tracer
			if maxSpans > 0 {
				tr = newTracer(uint32(i), start, maxSpans)
				res.tracers[i] = tr
			}
			n := 0
			for t0 := time.Now(); t0.Before(end) && (tr == nil || len(tr.spans) < maxSpans); n++ {
				in := g.next()
				out := r.runTxn(in, tr, uint32(n))
				t1 := time.Now()
				if t1.Before(end) {
					rec.attempted++
					switch out {
					case committed:
						rec.samples = append(rec.samples, sample{
							latNS: saturate(t1.Sub(t0)), typ: uint8(in.typ),
							slice: uint16(min(int(t1.Sub(start)/each), nSlices)),
						})
					case appRollback:
						rec.appRollbacks++
					case failed:
						rec.failed++
					}
					lastEnd[i] = t1
				}
				t0 = t1
			}
		}(i)
	}
	wg.Wait()

	if maxSpans > 0 {
		var last time.Time
		for _, t := range lastEnd {
			if t.After(last) {
				last = t
			}
		}
		if d := last.Sub(start); d > 0 && d < length {
			res.actual = d
		}
	}
	for i := range res.recs {
		rec := &res.recs[i]
		res.attempted += rec.attempted
		res.failed += rec.failed
		res.appRollbacks += rec.appRollbacks
		res.commits += len(rec.samples)
	}
	return res
}

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileNS returns the q-quantile of sorted nanosecond samples by the
// nearest-rank rule; 0 for none.
func quantileNS(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func sortU32(xs []uint32) []uint32 {
	slices.Sort(xs)
	return xs
}

// medianNS is the median of unsorted nanosecond durations.
func medianNS(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return float64(s[len(s)/2])
}

// lowerQuartile returns the value a quarter of xs are below; 0 for
// none. It is the figure for a fixed piece of work repeated a few times
// (set-up), where whatever disturbs a repetition only adds time.
func lowerQuartile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/4]
}

// splitHalf is a run's own repeatability: the median of the odd slices
// against that of the even ones, as a share of the median of all.
func splitHalf(xs []float64) float64 {
	var halves [2][]float64
	for i, x := range xs {
		halves[i%2] = append(halves[i%2], x)
	}
	all := median(xs)
	if all == 0 || len(halves[1]) == 0 {
		return 0
	}
	return math.Abs(median(halves[0])-median(halves[1])) / all
}

// latencyStats summarises a window's committed transactions: each
// end-to-end figure per slice and as the median of the slices, the
// throughput and the 99th percentile also over the whole window.
type latencyStats struct {
	tps, p50us, p95us       float64
	tpsSlices, p50Sl, p95Sl []float64
	tpsWindow, p99Window    float64
	typeP50us               [smallbank.NumTxnTypes]float64
	samples                 int
	typeSamples             [smallbank.NumTxnTypes]int
}

func summarise(res *windowResult) latencyStats {
	var st latencyStats
	nSlices, each := slicing(res.planned)
	all := make([]uint32, 0, res.commits)
	bySlice := make([][]uint32, nSlices)
	byType := make([][]uint32, smallbank.NumTxnTypes)
	for i := range res.recs {
		for _, s := range res.recs[i].samples {
			all = append(all, s.latNS)
			if int(s.slice) < nSlices {
				bySlice[s.slice] = append(bySlice[s.slice], s.latNS)
			}
			byType[s.typ] = append(byType[s.typ], s.latNS)
		}
	}
	sortU32(all)
	st.samples = len(all)
	st.tpsWindow = float64(len(all)) / res.planned.Seconds()
	st.p99Window = quantileNS(all, 0.99) / 1e3
	for _, sl := range bySlice {
		st.tpsSlices = append(st.tpsSlices, float64(len(sl))/each.Seconds())
		if len(sl) == 0 {
			continue // nothing committed in it: it has no latency
		}
		sortU32(sl)
		st.p50Sl = append(st.p50Sl, quantileNS(sl, 0.50)/1e3)
		st.p95Sl = append(st.p95Sl, quantileNS(sl, 0.95)/1e3)
	}
	st.tps = median(st.tpsSlices)
	st.p50us = median(st.p50Sl)
	st.p95us = median(st.p95Sl)
	for t, xs := range byType {
		st.typeSamples[t] = len(xs)
		st.typeP50us[t] = quantileNS(sortU32(xs), 0.50) / 1e3
	}
	return st
}
