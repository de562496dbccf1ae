package engine

import (
	"testing"

	"sicost/internal/core"
	"sicost/internal/trace"
)

// benchCommitTrace measures the benchCommit cycle (begin, read, update,
// commit) with a recorder in the given state. "off" (no recorder) is
// the PR-3 baseline path; "disabled" is the acceptance gauge for the
// tracing tentpole — a recorder installed but switched off must stay
// within 5% of it, because every emission point then costs one pointer
// test plus one atomic load.
func benchCommitTrace(b *testing.B, rec *trace.Recorder) {
	const rows = 1024
	db := Open(Config{Mode: core.SnapshotFUW, Platform: core.PlatformPostgres})
	db.SetTracer(rec)
	if err := db.CreateTable(kvSchema("T")); err != nil {
		b.Fatal(err)
	}
	tx := db.Begin()
	for k := int64(0); k < rows; k++ {
		if err := tx.Insert("T", kv(k, k)); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(db.Close)
	rec.Drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := int64(i) % rows
		tx := db.Begin()
		if _, err := tx.Get("T", core.Int(k)); err != nil {
			b.Fatal(err)
		}
		wk := (k + 1) % rows
		if err := tx.Update("T", core.Int(wk), kv(wk, int64(i))); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		if rec.Enabled() && i%4096 == 0 {
			// Keep the rings from filling so the enabled case measures
			// emission, not drop accounting.
			b.StopTimer()
			rec.Drain()
			b.StartTimer()
		}
	}
}

// BenchmarkCommitTraced compares the commit cycle with tracing absent,
// installed-but-disabled, and capturing. off vs disabled is the ≤5%
// budget; disabled vs enabled is the price of turning capture on.
func BenchmarkCommitTraced(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		benchCommitTrace(b, nil)
	})
	b.Run("disabled", func(b *testing.B) {
		benchCommitTrace(b, trace.New(trace.Options{Disabled: true}))
	})
	b.Run("enabled", func(b *testing.B) {
		benchCommitTrace(b, trace.New(trace.Options{}))
	})
}
