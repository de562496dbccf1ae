package smallbank_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/experiments"
	"sicost/internal/smallbank"
	"sicost/internal/wal"
)

// BenchmarkLoad prices the initial population — what every sisqld
// start, every figure-grid cell and every benchspine set-up pays — at
// the paper's size, on the two engines the gated workloads open:
//
//   - sisqld: the PostgreSQL profile with free CPUs, as cmd/sisqld opens
//     it (a 2.5 ms simulated log sync, no device);
//   - embed-durable: plain SI over a segmented log kept in memory, with
//     the checkpoint scheduler and segment retirement on.
//
// One operation is one full Load; the per-row metrics divide by the
// 72 001 rows it inserts. heap-B/row is what one loaded database keeps:
// the growth of HeapInuse, each side of a forced collection, from before
// its Open to after its Load (with embed-durable, its log segments held
// in memory included).
func BenchmarkLoad(b *testing.B) {
	const (
		customers = 18000
		rows      = 4*customers + 1
	)
	configs := []struct {
		name string
		cfg  func(b *testing.B) engine.Config
	}{
		{"sisqld", func(*testing.B) engine.Config {
			cfg := experiments.PostgresDB(1.0)
			cfg.Res.VirtualCPUs = 0
			return cfg
		}},
		{"embed-durable", func(b *testing.B) engine.Config {
			dev, err := wal.NewMemSegmentLog(2 << 20)
			if err != nil {
				b.Fatal(err)
			}
			return engine.Config{
				Mode:               core.SnapshotFUW,
				WAL:                wal.Config{Device: dev},
				CheckpointLogBytes: 8 << 20,
				RetireSegments:     true,
			}
		}},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				db := engine.Open(c.cfg(b))
				if err := smallbank.CreateSchema(db); err != nil {
					b.Fatal(err)
				}
				if _, err := smallbank.Load(db, smallbank.LoadConfig{Customers: customers, Seed: 42}); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				db.Close()
				b.StartTimer()
			}
			runtime.ReadMemStats(&after)
			perRow := func(total uint64) float64 { return float64(total) / float64(b.N) / rows }
			b.ReportMetric(perRow(uint64(b.Elapsed().Nanoseconds())), "ns/row")
			b.ReportMetric(perRow(after.Mallocs-before.Mallocs), "allocs/row")
			b.ReportMetric(perRow(after.TotalAlloc-before.TotalAlloc), "B/row")

			b.StopTimer()
			settle()
			runtime.ReadMemStats(&before)
			db := engine.Open(c.cfg(b))
			if err := smallbank.CreateSchema(db); err != nil {
				b.Fatal(err)
			}
			if _, err := smallbank.Load(db, smallbank.LoadConfig{Customers: customers, Seed: 42}); err != nil {
				b.Fatal(err)
			}
			settle()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(int64(after.HeapInuse)-int64(before.HeapInuse))/rows, "heap-B/row")
			db.Close()
		})
	}
}

// settle collects twice, so that what the pools held (sync.Pool keeps its
// items through one collection) is gone too, and gives the freed pages
// back to the system.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}
