package workload

import (
	"strings"
	"testing"
	"time"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/faultinject"
	"sicost/internal/onlinecheck"
	"sicost/internal/smallbank"
	"sicost/internal/wal"
)

// faultedDB builds a loaded bank wired to a fault registry.
func faultedDB(t *testing.T, mode core.CCMode, customers int, seed int64) (*engine.DB, *faultinject.Registry) {
	t.Helper()
	reg := faultinject.New(seed)
	db := engine.Open(engine.Config{Mode: mode, Platform: core.PlatformPostgres, Faults: reg})
	t.Cleanup(db.Close)
	if err := smallbank.CreateSchema(db); err != nil {
		t.Fatal(err)
	}
	if _, err := smallbank.Load(db, smallbank.LoadConfig{Customers: customers, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	return db, reg
}

func chaosConfig(measureD time.Duration) Config {
	return Config{
		MPL:         8,
		Customers:   50,
		HotspotSize: 10,
		HotspotProb: 0.9,
		Measure:     measureD,
		Seed:        1,
		Retry:       DefaultBackoff(50),
	}
}

// TestChaosInvariants is the harness's core promise: under a fault plan
// hitting every layer — including injected panics that kill programs
// mid-statement — money is conserved, no lock or waiter leaks, and a
// serializable configuration stays serializable.
func TestChaosInvariants(t *testing.T) {
	for _, mode := range []core.CCMode{core.Strict2PL, core.SerializableSI} {
		t.Run(mode.String(), func(t *testing.T) {
			db, _ := faultedDB(t, mode, 50, 7)
			specs := append(DefaultFaultPlan(),
				faultinject.Spec{Point: engine.FaultCommitStamp, Rate: 0.01, Action: faultinject.ActPanic},
				faultinject.Spec{Point: engine.FaultLockAcquire, Rate: 0.01, Action: faultinject.ActDelay, Delay: 200 * time.Microsecond},
			)
			cfg := chaosConfig(measure(500 * time.Millisecond))
			cfg.Check = onlinecheck.New(onlinecheck.Config{SIRules: mode != core.Strict2PL})
			rep, err := RunChaos(db, cfg, ChaosConfig{
				Specs:              specs,
				ExpectSerializable: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("invariants violated: %v", rep.Violations)
			}
			if rep.Result.Commits == 0 {
				t.Fatal("chaos run committed nothing")
			}
			if rep.Result.Check.Txns == 0 {
				t.Fatal("online checker saw no transaction")
			}
			if rep.Fired() == 0 {
				t.Fatal("fault plan never fired")
			}
			if !rep.ConservationChecked {
				t.Fatal("conservation not checked under the conserving mix")
			}
			if rep.Result.Aborts == 0 {
				t.Fatal("fault plan fired but produced no aborts")
			}
			if n := rep.Result.PerType[smallbank.DepositChecking].Aborts[core.AbortInjected]; n == 0 {
				// Injected faults must be classified as such somewhere in
				// the per-type stats; DC is the most frequent updater.
				var total int64
				for i := range rep.Result.PerType {
					total += rep.Result.PerType[i].Aborts[core.AbortInjected]
				}
				if total == 0 {
					t.Fatal("no aborts classified AbortInjected")
				}
			}
		})
	}
}

// TestChaosFlagsLostSerializability is the negative test of the verdict
// audit: the unmodified programs under plain SI on a two-customer
// hotspot commit a write skew sooner or later (the paper's premise), and
// a chaos run told to expect serializability must then list the online
// checker's finding as a violation. A 1 ms log sync keeps transactions
// open long enough to overlap: 15 of 15 runs found the anomaly within
// four attempts.
func TestChaosFlagsLostSerializability(t *testing.T) {
	if testing.Short() {
		t.Skip("stochastic anomaly search")
	}
	for attempt := 0; attempt < 20; attempt++ {
		db := engine.Open(engine.Config{
			Mode: core.SnapshotFUW, Platform: core.PlatformPostgres,
			WAL: wal.Config{FsyncLatency: time.Millisecond},
		})
		t.Cleanup(db.Close)
		if err := smallbank.CreateSchema(db); err != nil {
			t.Fatal(err)
		}
		if _, err := smallbank.Load(db, smallbank.LoadConfig{Customers: 40, Seed: 42}); err != nil {
			t.Fatal(err)
		}
		rep, err := RunChaos(db, Config{
			Strategy: smallbank.StrategySI, Mix: UniformMix(),
			MPL: 10, Customers: 40, HotspotSize: 2, HotspotProb: 1.0,
			Measure: 300 * time.Millisecond, Seed: int64(attempt * 31),
			Check: onlinecheck.New(onlinecheck.Config{SIRules: true}),
		}, ChaosConfig{ExpectSerializable: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Result.Check.Serializable {
			if !rep.OK() {
				t.Fatalf("serializable run violated invariants: %v", rep.Violations)
			}
			continue
		}
		if len(rep.Violations) != 1 || !strings.Contains(rep.Violations[0], "serializability lost under faults") {
			t.Fatalf("non-serializable verdict not flagged: violations %v\n%s", rep.Violations, rep.Result.Check.Describe())
		}
		return
	}
	t.Fatal("plain SI never produced a non-serializable execution on a pathological hotspot")
}

// TestChaosDetectsRealLeak simulates a buggy client that holds a write
// lock across the audit window: the audit must notice the leaked lock
// (negative test — the invariant checker itself works). Lock-wait
// timeouts keep the workload's writers from hanging on the leaked row,
// and snapshot reads keep the final money audit from blocking on it.
func TestChaosDetectsRealLeak(t *testing.T) {
	db := engine.Open(engine.Config{
		Mode: core.SnapshotFUW, Platform: core.PlatformPostgres,
		LockWaitTimeout: 5 * time.Millisecond,
	})
	defer db.Close()
	if err := smallbank.CreateSchema(db); err != nil {
		t.Fatal(err)
	}
	if _, err := smallbank.Load(db, smallbank.LoadConfig{Customers: 50, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	leak := db.Begin()
	if err := leak.Update(smallbank.TableChecking, core.Int(0),
		core.Record{core.Int(0), core.Int(12345)}); err != nil {
		t.Fatal(err)
	}
	rep, err := RunChaos(db, Config{
		MPL: 2, Customers: 50, HotspotSize: 10, HotspotProb: 0.9,
		Measure: 50 * time.Millisecond, Seed: 1,
		Retry: ImmediatePolicy{MaxRetries: 1},
	}, ChaosConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("audit missed a leaked lock")
	}
	leak.Abort()
}

func TestRunChaosRequiresRegistry(t *testing.T) {
	db := loadedDB(t, core.SnapshotFUW, 10)
	_, err := RunChaos(db, chaosConfig(10*time.Millisecond), ChaosConfig{
		Specs: DefaultFaultPlan(),
	})
	if err == nil {
		t.Fatal("chaos run without a registry accepted")
	}
	if _, err := RunChaos(db, chaosConfig(10*time.Millisecond), ChaosConfig{ExpectSerializable: true}); err == nil {
		t.Fatal("ExpectSerializable without an online checker accepted: nothing would have been checked")
	}
	// No specs: plain audited run is fine on a fault-free database.
	rep, err := RunChaos(db, chaosConfig(measure(100*time.Millisecond)), ChaosConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean run violated invariants: %v", rep.Violations)
	}
}
