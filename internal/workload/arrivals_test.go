package workload

import (
	"testing"
	"time"

	"sicost/internal/admission"
	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/faultinject"
	"sicost/internal/smallbank"
)

func TestRunArrivalsProducesGoodput(t *testing.T) {
	db := loadedDB(t, core.SnapshotFUW, 50)
	res, err := Run(db, Config{
		Rate:        800,
		Customers:   50,
		HotspotSize: 10,
		HotspotProb: 0.2,
		Ramp:        20 * time.Millisecond,
		Measure:     measure(200 * time.Millisecond),
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 {
		t.Fatal("open run committed nothing")
	}
	if res.TPS <= 0 {
		t.Fatalf("goodput = %v", res.TPS)
	}
	if res.Arrivals == 0 {
		t.Fatal("no measured arrivals")
	}
	// An interaction either commits, gives up, or is dropped at the
	// driver backstop; commits cannot exceed measured arrivals.
	if res.Commits > res.Arrivals {
		t.Fatalf("commits %d > arrivals %d", res.Commits, res.Arrivals)
	}
	if int64(res.Latency.Count) != res.Commits {
		t.Fatalf("latency count %d != commits %d", res.Latency.Count, res.Commits)
	}
	if res.InFlightPeak <= 0 {
		t.Fatal("in-flight peak never recorded")
	}
	if res.Dropped != 0 {
		t.Fatalf("unexpected driver drops: %d", res.Dropped)
	}
}

func TestRunArrivalsShedAccounting(t *testing.T) {
	// A one-slot gate with a one-deep queue against 800/s offered load:
	// most arrivals must be shed with ErrOverload, and the driver must
	// attribute them (no retry policy, so every shed is terminal).
	db := engine.Open(engine.Config{
		Mode: core.SnapshotFUW, Platform: core.PlatformPostgres,
		Admission: &admission.Config{
			InitialLimit: 1, MinLimit: 1, MaxLimit: 1,
			MaxQueue: 1, Interval: time.Hour,
		},
	})
	t.Cleanup(db.Close)
	if err := smallbank.CreateSchema(db); err != nil {
		t.Fatal(err)
	}
	if _, err := smallbank.Load(db, smallbank.LoadConfig{Customers: 50, Seed: 42}); err != nil {
		t.Fatal(err)
	}

	// Occupy the only slot for the first half of the window: arrivals in
	// that half find the gate full and the one-deep queue occupied, so
	// they shed; after the holder commits, service resumes and commits
	// appear.
	window := measure(200 * time.Millisecond)
	holder := db.Begin()
	timer := time.AfterFunc(window/2, func() { holder.Commit() })
	defer timer.Stop()

	res, err := Run(db, Config{
		Rate:        800,
		Customers:   50,
		HotspotSize: 10,
		HotspotProb: 0.2,
		Measure:     window,
		Seed:        2,
		Retry:       ImmediatePolicy{MaxRetries: -1}, // never retry
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatal("no interaction was shed despite a one-slot gate")
	}
	var overload int64
	for i := range res.PerType {
		overload += res.PerType[i].Aborts[core.AbortOverload]
	}
	if overload < res.Shed {
		t.Fatalf("overload aborts %d < shed verdicts %d", overload, res.Shed)
	}
	if res.Commits == 0 {
		t.Fatal("admitted slot committed nothing")
	}
	s := db.Admission().Stats()
	if s.Gate.Shed == 0 {
		t.Fatal("gate never counted a shed")
	}
	if s.Gate.InFlight != 0 || s.Gate.QueueDepth != 0 {
		t.Fatalf("gate leak after run: %+v", s.Gate)
	}
}

// TestRunArrivalsChaosConserves: the chaos harness calls Run, so a
// fault-injected open-system run is audited like any other — money
// conserved, no lock or waiter left behind.
func TestRunArrivalsChaosConserves(t *testing.T) {
	db, _ := faultedDB(t, core.Strict2PL, 50, 7)
	cfg := chaosConfig(measure(400 * time.Millisecond))
	cfg.MPL, cfg.Rate = 0, 1500
	rep, err := RunChaos(db, cfg, ChaosConfig{Specs: DefaultFaultPlan()})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("invariants violated: %v", rep.Violations)
	}
	if !rep.ConservationChecked || rep.HeldLocks != 0 || rep.QueuedLocks != 0 {
		t.Fatalf("audit incomplete or leaked: %+v", rep)
	}
	if rep.Result.Commits == 0 || rep.Fired() == 0 {
		t.Fatalf("%d commits, %d faults fired: the run exercised nothing", rep.Result.Commits, rep.Fired())
	}
	if rep.Result.Arrivals == 0 || rep.Result.InFlightPeak == 0 {
		t.Fatalf("not an arrivals run: %d arrivals, peak %d", rep.Result.Arrivals, rep.Result.InFlightPeak)
	}
}

// TestInteractionAccountsAlike pins that the one retry loop books the
// same events the same way whichever arrival process feeds it: with a
// conflict-free mix, the first 50 Begins failing with a serialization
// error are exactly 50 serialization aborts, 50 retries, no give-up,
// and one latency sample per commit.
func TestInteractionAccountsAlike(t *testing.T) {
	for name, load := range map[string]Config{"closed": {MPL: 4}, "arrivals": {Rate: 2000}} {
		t.Run(name, func(t *testing.T) {
			db, reg := faultedDB(t, core.SnapshotFUW, 50, 1)
			if err := reg.Arm(faultinject.Spec{
				Point: engine.FaultBegin, Action: faultinject.ActError,
				Err: core.ErrSerialization, Count: 50,
			}); err != nil {
				t.Fatal(err)
			}
			cfg := load
			cfg.Customers, cfg.HotspotSize, cfg.HotspotProb = 50, 10, 0.5
			cfg.Mix[smallbank.Balance] = 1
			cfg.Measure, cfg.Seed = measure(200*time.Millisecond), 3
			res, err := Run(db, cfg)
			if err != nil {
				t.Fatal(err)
			}
			bal := &res.PerType[smallbank.Balance]
			if got := bal.Aborts[core.AbortSerialization]; got != 50 || res.Aborts != 50 {
				t.Errorf("serialization aborts = %d of %d aborts, want 50 of 50", got, res.Aborts)
			}
			if res.Retries != 50 || res.GiveUps != 0 {
				t.Errorf("retries %d, give-ups %d, want 50 and 0", res.Retries, res.GiveUps)
			}
			if res.Commits == 0 || int64(res.Latency.Count) != res.Commits || int64(bal.Latency.Count) != res.Commits {
				t.Errorf("latency samples %d (Balance %d) for %d commits",
					res.Latency.Count, bal.Latency.Count, res.Commits)
			}
			if res.Arrivals != res.Commits+res.Dropped {
				t.Errorf("arrivals %d != commits %d + dropped %d", res.Arrivals, res.Commits, res.Dropped)
			}
		})
	}
}
