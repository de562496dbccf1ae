package onlinecheck_test

import (
	"fmt"
	"testing"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/onlinecheck"
	"sicost/internal/trace"
)

// benchCommitCheck measures the engine's commit cycle (begin, read,
// update, commit — the same cycle BenchmarkCommitTraced in
// internal/engine times) in three instrumentation states: no recorder
// ("off"), recorder capturing ("traced" — the price already paid for
// tracing), and recorder capturing with the online checker verifying
// the drained stream ("checked"). Both traced and checked consume the
// rings outside the timer, so traced→checked isolates the checker's
// commit-path footprint: emission is identical, and the measured delta
// must stay within the 5% budget. The checker's own off-path cost is
// priced separately, per event, by BenchmarkIngest — an asynchronous
// subscription (onlinecheck.Attach) spends exactly that on another
// core, where this single-threaded loop cannot see it honestly: timing
// the pump inline would bill wall-clock time-sharing, not commit
// latency, and at full tilt the loop overruns the rings, whose dropped
// commits then pin the watermark forever.
func benchCommitCheck(b *testing.B, mode string) {
	const rows = 1024
	var rec *trace.Recorder
	if mode != "off" {
		rec = trace.New(trace.Options{})
	}
	db := engine.Open(engine.Config{Mode: core.SnapshotFUW, Platform: core.PlatformPostgres})
	db.SetTracer(rec)
	b.Cleanup(db.Close)
	schema := &core.Schema{
		Name: "T",
		Columns: []core.Column{
			{Name: "K", Kind: core.KindInt, NotNull: true},
			{Name: "V", Kind: core.KindInt, NotNull: true},
		},
		PK: 0,
	}
	if err := db.CreateTable(schema); err != nil {
		b.Fatal(err)
	}
	seed := db.Begin()
	for k := int64(0); k < rows; k++ {
		if err := seed.Insert("T", core.Record{core.Int(k), core.Int(k)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		b.Fatal(err)
	}

	var chk *onlinecheck.Checker
	if mode == "checked" {
		chk = onlinecheck.New(onlinecheck.Config{SIRules: true})
		chk.Ingest(rec.Drain()) // the seed transaction starts the stream
	} else if rec != nil {
		rec.Drain()
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := int64(i) % rows
		tx := db.Begin()
		if _, err := tx.Get("T", core.Int(k)); err != nil {
			b.Fatal(err)
		}
		wk := (k + 1) % rows
		if err := tx.Update("T", core.Int(wk), core.Record{core.Int(wk), core.Int(int64(i))}); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		if mode != "off" && i%4096 == 0 {
			// Drain outside the timer, exactly as BenchmarkCommitTraced
			// does; the checked case also replays the batch through the
			// checker here, keeping the rings from overrunning while the
			// timed region prices only the commit path.
			b.StopTimer()
			if chk != nil {
				chk.Ingest(rec.Drain())
			} else {
				rec.Drain()
			}
			b.StartTimer()
		}
	}
	b.StopTimer()
	if mode == "checked" {
		chk.Ingest(rec.Drain())
		chk.Ingest(nil) // settle: nothing in flight, the window retires
		rep := chk.Finalize()
		if !rep.Serializable || rep.SIViolations != 0 {
			b.Fatalf("sequential bench flagged: %s", rep.Describe())
		}
		if rep.Stats.MaxWindow > 4096 {
			b.Fatalf("window grew like history under the bench: peak %d", rep.Stats.MaxWindow)
		}
		if rep.Stats.Pending != 0 || rep.Stats.GapTxs != 0 {
			b.Fatalf("stream incomplete after settle: %+v", rep.Stats)
		}
	}
}

// BenchmarkOnlineCheck compares the serial commit cycle with no
// recorder, with tracing capturing, and with the online checker
// verifying the stream live.
func BenchmarkOnlineCheck(b *testing.B) {
	for _, mode := range []string{"off", "traced", "checked"} {
		b.Run(mode, func(b *testing.B) { benchCommitCheck(b, mode) })
	}
}

// BenchmarkIngest prices the checker alone: a pre-recorded sequential
// commit stream replayed through Ingest, reported per event. This is
// the number to reason about when sizing Config.Batch — the window
// discipline runs every Batch events.
func BenchmarkIngest(b *testing.B) {
	const txs = 4096
	var evs []trace.Event
	ts := int64(0)
	emit := func(kind trace.Kind, tx, csn uint64, key string) {
		ts++
		ev := trace.Event{TS: ts, Kind: kind, Tx: tx, CSN: csn}
		if key != "" {
			ev.Table = "T"
			ev.Key = core.Str(key)
		}
		evs = append(evs, ev)
	}
	for i := 1; i <= txs; i++ {
		tx := uint64(i)
		key := fmt.Sprintf("k%d", i%64)
		emit(trace.EvBegin, tx, uint64(i-1), "")
		if i > 64 {
			emit(trace.EvReadVer, tx, uint64(i-64), key)
		}
		emit(trace.EvWriteVer, tx, uint64(i), key)
		emit(trace.EvCommit, tx, uint64(i), "")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := onlinecheck.Run(evs, onlinecheck.Config{SIRules: true})
		if !rep.Serializable {
			b.Fatal("bench stream flagged")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
}
