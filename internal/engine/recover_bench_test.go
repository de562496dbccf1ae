package engine_test

import (
	"runtime"
	"testing"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/smallbank"
	"sicost/internal/wal"
)

// BenchmarkRecover prices a restart of the paper's database from its
// checkpoint: the log holds the 18 000-customer load and one checkpoint
// of it (segments in front of the checkpoint retired, as embed-durable
// runs), and one operation is one Recover of a copy of that log — the
// scan and decode of its frames, the restore of the checkpoint's 72 001
// rows and the rebuild of the CustomerID index. The per-row metrics
// divide by those rows.
func BenchmarkRecover(b *testing.B) {
	const rows = 4*18000 + 1
	dev, err := wal.NewMemSegmentLog(2 << 20)
	if err != nil {
		b.Fatal(err)
	}
	cfg := engine.Config{Mode: core.SnapshotFUW, WAL: wal.Config{Device: dev}, RetireSegments: true}
	db, _, err := smallbank.Open(cfg, smallbank.LoadConfig{Customers: 18000, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	db.Close()
	image, err := dev.Segments()
	if err != nil {
		b.Fatal(err)
	}
	cfg.RetireSegments = false

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		survivor, err := wal.NewMemSegmentLog(2<<20, image...)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		db, rep, err := engine.Recover(survivor, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if rep.CheckpointRows != rows {
			b.Fatalf("restored %d checkpoint rows, want %d", rep.CheckpointRows, rows)
		}
		db.Close()
		b.StartTimer()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	perRow := func(total uint64) float64 { return float64(total) / float64(b.N) / rows }
	b.ReportMetric(perRow(uint64(b.Elapsed().Nanoseconds())), "ns/row")
	b.ReportMetric(perRow(after.Mallocs-before.Mallocs), "allocs/row")
}
