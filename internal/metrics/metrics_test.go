package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestMeanStdDev(t *testing.T) {
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{5}) != 0 {
		t.Fatal("empty/singleton cases")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v", got)
	}
	// Sample stddev of that classic set is ~2.138.
	if got := StdDev(xs); math.Abs(got-2.138) > 0.01 {
		t.Fatalf("StdDev = %v", got)
	}
}

func TestCI95(t *testing.T) {
	mean, hw := CI95([]float64{10})
	if mean != 10 || hw != 0 {
		t.Fatalf("singleton CI = %v ± %v", mean, hw)
	}
	// Five identical measurements: zero-width interval.
	mean, hw = CI95([]float64{7, 7, 7, 7, 7})
	if mean != 7 || hw != 0 {
		t.Fatalf("constant CI = %v ± %v", mean, hw)
	}
	// n=5 uses t=2.776: CI half-width = t * s / sqrt(5).
	xs := []float64{10, 12, 14, 16, 18}
	mean, hw = CI95(xs)
	if mean != 14 {
		t.Fatalf("mean = %v", mean)
	}
	want := 2.776 * StdDev(xs) / math.Sqrt(5)
	if math.Abs(hw-want) > 1e-9 {
		t.Fatalf("half-width = %v, want %v", hw, want)
	}
	// Large n falls back to the normal value.
	big := make([]float64, 100)
	for i := range big {
		big[i] = float64(i % 10)
	}
	_, hw = CI95(big)
	want = 1.960 * StdDev(big) / 10
	if math.Abs(hw-want) > 1e-9 {
		t.Fatalf("large-n half-width = %v, want %v", hw, want)
	}
}

// Property: the CI always contains the mean, and widening the spread
// never shrinks the interval.
func TestCI95Property(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		mean, hw := CI95(xs)
		if hw < 0 {
			return false
		}
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			scaled[i] = mean + (x-mean)*2
		}
		_, hw2 := CI95(scaled)
		return hw2 >= hw-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			h.Record(time.Duration(v))
		}
		s := h.Snapshot()
		prev := time.Duration(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 1} {
			cur := s.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
