package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sicost/internal/admission"
	"sicost/internal/core"
	"sicost/internal/storage"
	"sicost/internal/wal"
)

// benchDB builds a DB for benchmarking: no simulated costs, table T
// preloaded with rows keys [0,rows).
func benchDB(b *testing.B, mode core.CCMode, rows int64) *DB {
	b.Helper()
	db := Open(Config{Mode: mode, Platform: core.PlatformPostgres})
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
	return db
}

// benchCommit measures the full uncontended transaction cycle for one
// concurrency-control mode: begin, read one row, update another row,
// commit. This is the common path every SmallBank transaction pays, so
// the per-mode deltas here are the engine-side "cost of serializability"
// the paper's §V throughput figures rest on.
func benchCommit(b *testing.B, mode core.CCMode) {
	const rows = 1024
	db := benchDB(b, mode, rows)
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
	}
}

func BenchmarkCommitSI(b *testing.B)   { benchCommit(b, core.SnapshotFUW) }
func BenchmarkCommitS2PL(b *testing.B) { benchCommit(b, core.Strict2PL) }
func BenchmarkCommitSSI(b *testing.B)  { benchCommit(b, core.SerializableSI) }

// benchModes enumerates the three engine modes the parallel benchmarks
// sweep.
var benchModes = []struct {
	name string
	mode core.CCMode
}{
	{"SI", core.SnapshotFUW},
	{"S2PL", core.Strict2PL},
	{"SSI", core.SerializableSI},
}

// benchCommitParallel measures the commit cycle under `workers`
// concurrent committers on uniformly drawn keys. Low data contention by
// construction (4096 rows), so the measured slope is the engine's
// synchronization scalability — the lock-table and commit-sequencing
// paths — not FUW conflict behaviour. Retriable aborts (rare on the
// uniform mix, more common for SSI) are retried with fresh keys and
// counted via the aborts/op metric.
func benchCommitParallel(b *testing.B, mode core.CCMode, workers int) {
	const rows = 4096
	db := benchDB(b, mode, rows)
	// RunParallel spawns p*GOMAXPROCS goroutines; pick p so the total is
	// at least `workers` (exact when GOMAXPROCS divides it).
	p := (workers + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0)
	b.SetParallelism(p)
	var seed, aborts atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(42 + seed.Add(1)))
		for pb.Next() {
			for {
				k := rng.Int63n(rows)
				wk := rng.Int63n(rows)
				tx := db.Begin()
				_, err := tx.Get("T", core.Int(k))
				if err == nil {
					err = tx.Update("T", core.Int(wk), kv(wk, k))
				}
				if err == nil {
					err = tx.Commit()
				}
				if err == nil {
					break
				}
				tx.Abort()
				if !core.IsRetriable(err) {
					b.Error(err)
					return
				}
				aborts.Add(1)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(aborts.Load())/float64(b.N), "aborts/op")
}

// BenchmarkCommitParallel is the multi-core scaling benchmark: each mode
// at 1-, 4- and 16-way concurrency. The g16 uniform-key point is the
// acceptance gauge for the sharded lock table (BENCH_engine.json).
func BenchmarkCommitParallel(b *testing.B) {
	for _, mc := range benchModes {
		for _, workers := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/g%d", mc.name, workers), func(b *testing.B) {
				benchCommitParallel(b, mc.mode, workers)
			})
		}
	}
}

// BenchmarkCommitParallelHot is the adversarial counterpart: every
// transaction updates the same row, so the engine's behaviour is
// conflict-dominated (FUW aborts under SI/SSI, lock convoys under 2PL).
// It bounds how much sharding can help when the workload itself
// serializes.
func BenchmarkCommitParallelHot(b *testing.B) {
	for _, mc := range benchModes {
		b.Run(mc.name, func(b *testing.B) {
			const rows = 64
			db := benchDB(b, mc.mode, rows)
			var seed, aborts atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(7 + seed.Add(1)))
				for pb.Next() {
					for {
						tx := db.Begin()
						err := tx.Update("T", core.Int(0), kv(0, rng.Int63()))
						if err == nil {
							err = tx.Commit()
						}
						if err == nil {
							break
						}
						tx.Abort()
						if !core.IsRetriable(err) {
							b.Error(err)
							return
						}
						aborts.Add(1)
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(aborts.Load())/float64(b.N), "aborts/op")
		})
	}
}

// BenchmarkCommitDurable prices durability on the serial commit cycle
// (begin, read, update, commit). latency-only is the pre-durability
// WAL: the flush loop simulates group-commit latency but persists
// nothing. mem adds the record encoding and CRC32C framing into an
// in-memory segment log, so mem-latency is the pure codec cost. (The
// real-file price is BenchmarkCommitDurableMPL16's and the benchspine
// embed-durable workload's.)
func BenchmarkCommitDurable(b *testing.B) {
	for _, v := range []struct {
		name string
		dev  func(b *testing.B) wal.LogDevice
	}{
		{"latency-only", func(b *testing.B) wal.LogDevice { return nil }},
		{"mem", func(b *testing.B) wal.LogDevice { return newMemLog(b) }},
	} {
		b.Run(v.name, func(b *testing.B) {
			const rows = 1024
			db := Open(Config{
				Mode: core.SnapshotFUW, Platform: core.PlatformPostgres,
				WAL: wal.Config{Device: v.dev(b)},
			})
			b.Cleanup(db.Close)
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
			}
		})
	}
}

// BenchmarkCommitDurableMPL16 prices group commit under contention for
// the device: 16 committers on disjoint key stripes against a real
// file-backed segment log. coalesced covers every record queued during
// the previous fsync with ONE device sync, in a segment large enough
// never to rotate; async publishes before durability and rides the same
// syncs off the commit path; segments adds rotation every 256KiB. The
// commits/sync metric is the group-commit gauge.
func BenchmarkCommitDurableMPL16(b *testing.B) {
	const (
		mpl    = 16
		stripe = 64
		rows   = mpl * stripe
	)
	for _, v := range []struct {
		name    string
		segSize int64
		async   bool
	}{
		{"coalesced-file", 1 << 30, false},
		{"async-file", 1 << 30, true},
		{"segments-file", 256 << 10, false},
	} {
		b.Run(v.name, func(b *testing.B) {
			dev, err := wal.OpenSegmentLog(b.TempDir(), v.segSize)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { dev.Close() })
			// FsyncLatency models a realistic ~200µs device sync on top of
			// the real file I/O: tmpfs fsyncs complete in microseconds, so
			// without it no queue forms behind the sync and every variant
			// degenerates to one commit per window.
			db := Open(Config{
				Mode: core.SnapshotFUW, Platform: core.PlatformPostgres,
				WAL:         wal.Config{Device: dev, FsyncLatency: 200 * time.Microsecond},
				AsyncCommit: v.async,
			})
			b.Cleanup(db.Close)
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
			pre := db.WAL().Stats()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < mpl; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Disjoint stripes: no serialization aborts pollute the
					// durability price.
					for i := 0; i < b.N/mpl; i++ {
						k := int64(w*stripe + i%stripe)
						tx := db.Begin()
						if _, err := tx.Get("T", core.Int(k)); err != nil {
							b.Error(err)
							return
						}
						if err := tx.Update("T", core.Int(k), kv(k, int64(i))); err != nil {
							b.Error(err)
							return
						}
						if err := tx.Commit(); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			db.WAL().Drain()
			s := db.WAL().Stats()
			if syncs := s.Syncs - pre.Syncs; syncs > 0 {
				b.ReportMetric(float64(s.Records-pre.Records)/float64(syncs), "commits/sync")
			}
		})
	}
}

// BenchmarkCommitDurableMPL2 is the embedded durable commit in
// miniature: two committers on disjoint keys, each running begin, read,
// update, sync commit with no simulated latency. Every wait between the
// two committers is then shorter than what a parked goroutine costs to
// wake, so this is where the commit path's handoffs show: the heir
// waiting on the flush loop, a follower waiting for its verdict,
// publishCSN waiting for its predecessor. mem is an in-memory segment
// log, which makes no system call; file is the embed-durable workload's
// device, a directory of write-through segment files on /dev/shm (the
// test's temporary directory where there is none), one write per window.
// It reports allocs/op (the commit record, its channel, its row images
// and its frame come from the transaction's recycled buffers) and
// commits/sync (about 1.0: the device is faster than a committer's
// return). To read the handoffs:
//
//	go test -run XXX -bench CommitDurableMPL2 -trace t.out ./internal/engine
//	go tool trace -pprof=sched t.out
func BenchmarkCommitDurableMPL2(b *testing.B) {
	const (
		mpl    = 2
		stripe = 512
	)
	for _, v := range []struct {
		name string
		dev  func(b *testing.B) (wal.LogDevice, error)
	}{
		{"mem", func(b *testing.B) (wal.LogDevice, error) { return wal.NewMemSegmentLog(2 << 20) }},
		{"file", func(b *testing.B) (wal.LogDevice, error) {
			dir := b.TempDir()
			if shm, err := os.MkdirTemp("/dev/shm", "sicost-bench-"); err == nil {
				b.Cleanup(func() { os.RemoveAll(shm) })
				dir = shm
			}
			dev, err := wal.OpenSegmentLog(dir, 2<<20)
			if err == nil {
				b.Cleanup(func() { dev.Close() })
			}
			return dev, err
		}},
	} {
		b.Run(v.name, func(b *testing.B) {
			dev, err := v.dev(b)
			if err != nil {
				b.Fatal(err)
			}
			db := Open(Config{Mode: core.SnapshotFUW, Platform: core.PlatformPostgres, WAL: wal.Config{Device: dev}})
			b.Cleanup(db.Close)
			if err := db.CreateTable(kvSchema("T")); err != nil {
				b.Fatal(err)
			}
			tx := db.Begin()
			for k := int64(0); k < mpl*stripe; k++ {
				if err := tx.Insert("T", kv(k, k)); err != nil {
					b.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
			pre := db.WAL().Stats()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < mpl; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < b.N/mpl; i++ {
						k := int64(w*stripe + i%stripe)
						tx := db.Begin()
						if _, err := tx.Get("T", core.Int(k)); err != nil {
							b.Error(err)
							return
						}
						if err := tx.Update("T", core.Int(k), kv(k, int64(i))); err != nil {
							b.Error(err)
							return
						}
						if err := tx.Commit(); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			s := db.WAL().Stats()
			if syncs := s.Syncs - pre.Syncs; syncs > 0 {
				b.ReportMetric(float64(s.Records-pre.Records)/float64(syncs), "commits/sync")
			}
		})
	}
}

// BenchmarkCommitCheckpointMPL16 prices checkpoint interference on the
// commit path: 16 committers on disjoint stripes against a file-backed
// segment log (simulated 200µs sync), with a deliberately large cold
// table so the checkpoint has real work to do: every checkpoint
// rewrites all of it. none is the interference-free baseline;
// checkpointing runs the log-growth scheduler taking checkpoints
// concurrently with the committers, holding the barrier only to cut and
// append a begin marker. The p99-ns metric is the one to watch: the
// line drawn for it is checkpointing within 2× of none at this MPL.
func BenchmarkCommitCheckpointMPL16(b *testing.B) {
	const (
		mpl    = 16
		stripe = 64
		hot    = mpl * stripe
		cold   = 16384 // rows only the checkpoint touches
	)
	p99 := func(ns []int64) float64 {
		if len(ns) == 0 {
			return 0
		}
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		return float64(ns[(len(ns)-1)*99/100])
	}
	for _, v := range []struct {
		name          string
		checkpointing bool
	}{
		{"none", false},
		{"checkpointing", true},
	} {
		b.Run(v.name, func(b *testing.B) {
			dev, err := wal.OpenSegmentLog(b.TempDir(), 1<<30)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { dev.Close() })
			cfg := Config{
				Mode: core.SnapshotFUW, Platform: core.PlatformPostgres,
				WAL: wal.Config{Device: dev, FsyncLatency: 200 * time.Microsecond},
			}
			if v.checkpointing {
				cfg.CheckpointLogBytes = 128 << 10
			}
			db := Open(cfg)
			b.Cleanup(db.Close)
			if err := db.CreateTable(kvSchema("T")); err != nil {
				b.Fatal(err)
			}
			tx := db.Begin()
			for k := int64(0); k < hot+cold; k++ {
				if err := tx.Insert("T", kv(k, k)); err != nil {
					b.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
			lats := make([][]int64, mpl)
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < mpl; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < b.N/mpl; i++ {
						k := int64(w*stripe + i%stripe)
						t0 := time.Now()
						tx := db.Begin()
						if _, err := tx.Get("T", core.Int(k)); err != nil {
							b.Error(err)
							return
						}
						if err := tx.Update("T", core.Int(k), kv(k, int64(i))); err != nil {
							b.Error(err)
							return
						}
						if err := tx.Commit(); err != nil {
							b.Error(err)
							return
						}
						lats[w] = append(lats[w], time.Since(t0).Nanoseconds())
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			var all []int64
			for _, l := range lats {
				all = append(all, l...)
			}
			b.ReportMetric(p99(all), "p99-ns")
			cs := db.CheckpointStats()
			if v.checkpointing {
				b.ReportMetric(float64(cs.Links), "links")
			}
			if cs.PauseNS > 0 && len(all) > 0 {
				b.ReportMetric(float64(cs.PauseNS)/float64(len(all)), "pause-ns/op")
			}
		})
	}
}

// BenchmarkCommitReadOnly isolates the read path: SSI must track read
// sets and 2PL must take S locks, while SI reads are lock-free.
func BenchmarkCommitReadOnly(b *testing.B) {
	for _, mc := range []struct {
		name string
		mode core.CCMode
	}{
		{"SI", core.SnapshotFUW},
		{"S2PL", core.Strict2PL},
		{"SSI", core.SerializableSI},
	} {
		b.Run(mc.name, func(b *testing.B) {
			const rows = 1024
			db := benchDB(b, mc.mode, rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := db.Begin()
				if _, err := tx.Get("T", core.Int(int64(i)%rows)); err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBeginAdmitted prices the admission gate on the transaction
// cycle. The off case is the acceptance budget: a database without
// Config.Admission must pay nothing new at Begin (the gate pointer is
// nil, one branch). The on case measures the uncontended fast path — an
// atomic-free mutex acquire/release pair per Begin/endTx with the limit
// never reached — plus the controller ticking in the background.
func BenchmarkBeginAdmitted(b *testing.B) {
	run := func(b *testing.B, adm *admission.Config) {
		const rows = 1024
		db := Open(Config{Mode: core.SnapshotFUW, Platform: core.PlatformPostgres, Admission: adm})
		b.Cleanup(db.Close)
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
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) {
		run(b, &admission.Config{InitialLimit: 64, MinLimit: 64, MaxLimit: 64})
	})
}

// BenchmarkRowLock prices one write-lock cycle — acquire, then the
// transaction-end release — on the three paths a row lock can take:
//
//   - thin: an SI mode and nobody else wants the row. The lock is a
//     compare-and-swap of the row's owner word each way and the lock
//     table is entered only for the (empty) transaction-end sweep.
//   - inflated: the same owner, but a second writer asks for the row
//     while it is held, moves the hold into the table and queues, and
//     gives up at once (a 1 ns lock timeout, so nothing parks and the
//     number is CPU, not scheduling). The owner's release finds its swap
//     refused and goes through the table. This is the full price of a
//     conflict's bookkeeping: two requests, one inflation, one
//     all-stripes deadlock check, one withdrawal, two releases.
//   - table-2pl: Strict2PL, where every request goes through the table —
//     the cycle every mode paid before the lock moved into the row.
func BenchmarkRowLock(b *testing.B) {
	key := core.Int(0)
	setup := func(b *testing.B, mode core.CCMode) (*DB, *storage.Table, *storage.Row) {
		db := benchDB(b, mode, 1)
		tbl := db.store.MustTable("T")
		return db, tbl, tbl.Row(key)
	}
	cycle := func(b *testing.B, tx *Tx, tbl *storage.Table, row *storage.Row) {
		if err := tx.lockForWrite(tbl, key, row); err != nil {
			b.Fatal(err)
		}
		tx.releaseLocks()
		tx.thin = tx.thin[:0]
	}
	for _, c := range []struct {
		name string
		mode core.CCMode
	}{{"thin", core.SnapshotFUW}, {"table-2pl", core.Strict2PL}} {
		b.Run(c.name, func(b *testing.B) {
			db, tbl, row := setup(b, c.mode)
			tx := db.Begin()
			defer tx.Abort()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle(b, tx, tbl, row)
			}
		})
	}
	b.Run("inflated", func(b *testing.B) {
		db, tbl, row := setup(b, core.SnapshotFUW)
		owner, contender := db.Begin(), db.Begin()
		defer owner.Abort()
		defer contender.Abort()
		db.cfg.LockWaitTimeout = 1 // the contender gives up at once
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := owner.lockForWrite(tbl, key, row); err != nil {
				b.Fatal(err)
			}
			if err := contender.lockForWrite(tbl, key, row); !errors.Is(err, core.ErrLockTimeout) {
				b.Fatalf("contender: %v", err)
			}
			owner.releaseLocks()
			owner.thin = owner.thin[:0]
		}
		b.StopTimer()
		if waits := db.Contention().Lock.Waits; waits != uint64(b.N) {
			b.Fatalf("%d of %d cycles went through the queue", waits, b.N)
		}
	})
}
