// Package metrics provides the small statistics toolkit the engine,
// the workload driver and the experiment harness share: one concurrent
// log-linear latency Histogram (hist.go), sharded contention counters,
// the abort taxonomy counters, and 95% confidence intervals over
// repeated runs (the paper plots the average of five runs with 95% CI
// error bars).
package metrics

import "math"

// Mean returns the arithmetic mean of xs (0 when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation (0 for fewer than two
// samples).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// tTable95 holds two-sided 95% Student-t critical values by degrees of
// freedom (1-based); beyond the table the normal approximation is used.
var tTable95 = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// CI95 returns the mean of xs and the half-width of its 95% confidence
// interval using the Student-t distribution (the paper's error bars).
// With fewer than two samples the half-width is 0.
func CI95(xs []float64) (mean, halfWidth float64) {
	mean = Mean(xs)
	n := len(xs)
	if n < 2 {
		return mean, 0
	}
	df := n - 1
	t := 1.960
	if df <= len(tTable95) {
		t = tTable95[df-1]
	}
	return mean, t * StdDev(xs) / math.Sqrt(float64(n))
}
