package smallbank

import (
	"testing"

	"sicost/internal/core"
	"sicost/internal/engine"
)

// raceDetector is set when the tests run under the race detector
// (race_test.go).
var raceDetector bool

// TestRunAllocations pins the heap allocations of one smallbank.Run per
// program on an in-memory database, in program order Bal/DC/TS/Amg/WC.
// Run's handle is the engine's and is reused (engine.DB.Txn), and a
// SmallBank row image lives in its version's allocation, so what is
// left is one allocation per version written. A program that puts its
// executor or its bindings on the heap shows here. The race detector's sync.Pool drops recycled buffers, so the
// counts hold only without it.
func TestRunAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops recycled buffers")
	}
	want := map[*Strategy][NumTxnTypes]float64{
		StrategySI:             {0, 1, 1, 3, 1},
		StrategyMaterializeALL: {1, 2, 2, 5, 2},
		StrategyPromoteALL:     {2, 1, 1, 3, 2},
	}
	db := engine.Open(engine.Config{Mode: core.SnapshotFUW, Platform: core.PlatformPostgres})
	defer db.Close()
	if err := CreateSchema(db); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(db, LoadConfig{Customers: 10, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	p := Params{N1: CustomerName(1), N2: CustomerName(2), V: 1}
	for s, limits := range want {
		for typ := TxnType(0); typ < numTxnTypes; typ++ {
			got := testing.AllocsPerRun(200, func() {
				if err := Run(db, s, typ, p); err != nil {
					t.Fatalf("%s %s: %v", s.Name, typ.Short(), err)
				}
			})
			if got > limits[typ] {
				t.Errorf("%s %s: %v allocs per Run, want at most %v", s.Name, typ.Short(), got, limits[typ])
			}
		}
	}
}
