package smallbank_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/smallbank"
	"sicost/internal/wal"
)

// BenchmarkSmallBankDurable is the durable embedded engine in
// miniature, at one and at two closed-loop clients: plain SI over a
// file-backed segment log (on tmpfs where /dev/shm exists), sync commit,
// the checkpoint scheduler and segment retirement on, the paper's
// 18 000 customers and the uniform five-program mix with 90 % of the
// picks on a 1 000-customer hotspot. It reports txn/s; clients=2 over
// clients=1 is what a second processor buys a durable transaction.
// Its allocations per operation are the program path's per transaction
// (the checkpoints' and retries' included). Each client runs its share
// of b.N with its own generator, so the clients share nothing the
// engine does not.
func BenchmarkSmallBankDurable(b *testing.B) {
	for _, clients := range []int{1, 2} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			b.ReportAllocs()
			db := openDurableBank(b)
			defer db.Close()
			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			for c := range clients {
				n := b.N / clients
				if c < b.N%clients {
					n++
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(c) + 1))
					for range n {
						typ, p := drawDurable(rng)
						if err := runRetried(db, typ, p); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "txn/s")
		})
	}
}

// openDurableBank opens and loads the benchmark's database on a fresh
// segment directory, removed when the benchmark ends.
func openDurableBank(b *testing.B) *engine.DB {
	parent := ""
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		parent = "/dev/shm"
	}
	dir, err := os.MkdirTemp(parent, "sicost-bench-")
	if err != nil {
		b.Fatal(err)
	}
	dev, err := wal.OpenSegmentLog(dir, 2<<20)
	if err != nil {
		os.RemoveAll(dir)
		b.Fatal(err)
	}
	b.Cleanup(func() {
		dev.Close()
		os.RemoveAll(dir)
	})
	db, _, err := smallbank.Open(engine.Config{
		Mode:               core.SnapshotFUW,
		WAL:                wal.Config{Device: dev},
		CheckpointLogBytes: 8 << 20,
		RetireSegments:     true,
	}, smallbank.LoadConfig{Customers: durableCustomers, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// The paper's database and access skew (§IV).
const (
	durableCustomers = 18000
	durableHotspot   = 1000
)

var durableNames = func() []string {
	names := make([]string, durableCustomers)
	for i := range names {
		names[i] = smallbank.CustomerName(i)
	}
	return names
}()

// drawDurable draws one transaction of the uniform mix.
func drawDurable(rng *rand.Rand) (smallbank.TxnType, smallbank.Params) {
	customer := func() string {
		if rng.Float64() < 0.9 {
			return durableNames[rng.Intn(durableHotspot)]
		}
		return durableNames[durableHotspot+rng.Intn(durableCustomers-durableHotspot)]
	}
	typ := smallbank.TxnType(rng.Intn(smallbank.NumTxnTypes))
	p := smallbank.Params{N1: customer()}
	switch typ {
	case smallbank.Amalgamate:
		for p.N2 = customer(); p.N2 == p.N1; p.N2 = customer() {
		}
	case smallbank.DepositChecking:
		p.V = 1 + rng.Int63n(100_00)
	case smallbank.TransactSaving:
		p.V = rng.Int63n(200_00) - 50_00
	case smallbank.WriteCheck:
		p.V = 1 + rng.Int63n(50_00)
	}
	return typ, p
}

// runRetried runs one transaction to its end: reruns of a retriable
// abort, and an application rollback, count as done.
func runRetried(db *engine.DB, typ smallbank.TxnType, p smallbank.Params) error {
	for {
		err := smallbank.Run(db, smallbank.StrategySI, typ, p)
		if err == nil || errors.Is(err, core.ErrRollback) {
			return nil
		}
		if !core.IsRetriable(err) {
			return err
		}
	}
}
