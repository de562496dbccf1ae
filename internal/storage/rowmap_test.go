package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"testing/quick"

	"sicost/internal/core"
)

// randomKey draws an integer or a string key from a space of 1000 each,
// so a run of draws repeats keys and mixes both kinds in one table.
func randomKey(rng *rand.Rand) core.Value {
	n := rng.Intn(1000)
	if rng.Intn(2) == 0 {
		return core.Int(int64(n))
	}
	return core.Str(strconv.Itoa(n))
}

// TestQuickRangeVisitsEachRowOnce: for random int- and string-keyed
// tables, a Range that runs while another goroutine keeps calling
// EnsureRow visits every anchor present when it started exactly once,
// with the anchor Row returns, and no key twice; an anchor born during
// the walk is visited at most once. A walk whose fn returns false
// after n visits makes exactly n.
func TestQuickRangeVisitsEachRowOnce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl, err := NewTable(checkingSchema())
		if err != nil {
			t.Log(err)
			return false
		}
		before := make(map[core.Value]*Row)
		for i, n := 0, 1+rng.Intn(600); i < n; i++ {
			k := randomKey(rng)
			before[k] = tbl.EnsureRow(k)
		}
		during := make([]core.Value, rng.Intn(300))
		for i := range during {
			during[i] = randomKey(rng)
		}

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range during {
				tbl.EnsureRow(k)
				runtime.Gosched()
			}
		}()
		seen := make(map[core.Value]int)
		ok := true
		tbl.Range(func(k core.Value, r *Row) bool {
			seen[k]++
			if want, present := before[k]; present && r != want {
				t.Logf("key %v: Range gave another anchor than EnsureRow", k)
				ok = false
			}
			runtime.Gosched()
			return true
		})
		wg.Wait()
		for k, n := range seen {
			if n != 1 {
				t.Logf("key %v visited %d times", k, n)
				ok = false
			}
			if tbl.Row(k) == nil {
				t.Logf("key %v visited but has no anchor", k)
				ok = false
			}
		}
		for k := range before {
			if seen[k] != 1 {
				t.Logf("key %v present before the walk, visited %d times", k, seen[k])
				ok = false
			}
		}

		total := tbl.RowCount()
		stop := 1 + rng.Intn(total+10)
		visits := 0
		tbl.Range(func(core.Value, *Row) bool {
			visits++
			return visits < stop
		})
		if want := min(stop, total); visits != want {
			t.Logf("stop after %d of %d anchors: %d visits", stop, total, visits)
			ok = false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// rowMapSink keeps BenchmarkRowMap's lookups from being optimised away.
var rowMapSink *Row

// BenchmarkRowMap prices the row map at the paper's size (18 000
// customers): a Row hit on an integer key (Saving, Checking) and on a
// string key (Account's customer names), a miss, an EnsureRow insert of
// a new key into a table growing to 18 000 rows, and one Range over
// 72 001 anchors (the rows a checkpoint reads), reported per anchor as
// well.
func BenchmarkRowMap(b *testing.B) {
	const customers = 18000
	ints := make([]core.Value, customers)
	strs := make([]core.Value, customers)
	for i := range ints {
		ints[i] = core.Int(int64(i))
		strs[i] = core.Str(fmt.Sprintf("Customer%08d", i))
	}
	loaded := func(keys []core.Value) *Table {
		tbl, err := NewTable(checkingSchema())
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range keys {
			tbl.EnsureRow(k)
		}
		return tbl
	}
	lookup := func(keys []core.Value) func(*testing.B) {
		return func(b *testing.B) {
			tbl := loaded(keys)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rowMapSink = tbl.Row(keys[i%len(keys)])
			}
		}
	}
	b.Run("row-int", lookup(ints))
	b.Run("row-str", lookup(strs))
	b.Run("row-miss", func(b *testing.B) {
		tbl := loaded(ints)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rowMapSink = tbl.Row(core.Int(int64(customers + i)))
		}
	})
	b.Run("ensure-insert", func(b *testing.B) {
		var tbl *Table
		for i := 0; i < b.N; i++ {
			if i%customers == 0 {
				b.StopTimer()
				tbl = loaded(nil)
				b.StartTimer()
			}
			rowMapSink = tbl.EnsureRow(ints[i%customers])
		}
	})
	b.Run("range-72001", func(b *testing.B) {
		keys := append([]core.Value(nil), strs...)
		for i := 0; i < 3*customers+1; i++ {
			keys = append(keys, core.Int(int64(i)))
		}
		tbl := loaded(keys)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tbl.Range(func(_ core.Value, r *Row) bool {
				rowMapSink = r
				return true
			})
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(keys)), "ns/anchor")
	})
}
