package metrics

import (
	"sync"
	"testing"
)

func TestContentionCounterRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16}, {64, 64},
	}
	for _, c := range cases {
		if got := NewContentionCounter(c.in).Shards(); got != c.want {
			t.Errorf("NewContentionCounter(%d).Shards() = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestContentionCounterBasics(t *testing.T) {
	c := NewContentionCounter(4)
	c.Inc(0)
	c.Inc(0)
	c.Add(3, 40)
	c.Inc(7) // out-of-range shard wraps by mask (7&3 == 3)
	if got := c.Get(0); got != 2 {
		t.Errorf("Get(0) = %d, want 2", got)
	}
	if got := c.Get(3); got != 41 {
		t.Errorf("Get(3) = %d, want 41", got)
	}
	if got := c.Total(); got != 43 {
		t.Errorf("Total() = %d, want 43", got)
	}
	per := c.PerShard()
	if len(per) != 4 || per[0] != 2 || per[1] != 0 || per[2] != 0 || per[3] != 41 {
		t.Errorf("PerShard() = %v", per)
	}
}

// TestContentionCounterConcurrent increments from many goroutines; the
// total must be exact (atomic shards) and -race must stay silent.
func TestContentionCounterConcurrent(t *testing.T) {
	c := NewContentionCounter(8)
	const (
		workers = 16
		iters   = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc(id % c.Shards())
			}
		}(w)
	}
	wg.Wait()
	if got := c.Total(); got != workers*iters {
		t.Fatalf("Total() = %d, want %d", got, workers*iters)
	}
	sum := uint64(0)
	for _, v := range c.PerShard() {
		sum += v
	}
	if sum != workers*iters {
		t.Fatalf("PerShard sum = %d, want %d", sum, workers*iters)
	}
}
