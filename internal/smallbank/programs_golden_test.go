package smallbank

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/simres"
	"sicost/internal/trace"
)

// goldenRes and goldenCost are a small simulated machine whose charges
// are pairwise distinct, so a statement or penalty too many or too few
// shows in the CPU delta of one transaction.
var (
	goldenRes  = simres.Config{VirtualCPUs: 1, TxnCPU: 1 * time.Microsecond, StmtCPU: 3 * time.Microsecond, UpdaterCommitCPU: 7 * time.Microsecond}
	goldenCost = engine.CostModel{MaterializeWrite: 11 * time.Microsecond, PromoteUpdate: 13 * time.Microsecond, SelectForUpdate: 17 * time.Microsecond}
)

func goldenDB(t *testing.T, platform core.Platform) *engine.DB {
	t.Helper()
	cost := goldenCost
	db, _, err := Open(engine.Config{Mode: core.SnapshotFUW, Platform: platform, Res: goldenRes, Cost: &cost},
		LoadConfig{Customers: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

// renderPrograms runs every program once, serially, under every strategy
// on both platforms and renders what each run asked of the engine: its
// statement events (kind, table, key), tx.Stmts() and the simulated CPU
// it was charged.
func renderPrograms(t *testing.T) string {
	var b strings.Builder
	for _, plat := range []core.Platform{core.PlatformPostgres, core.PlatformCommercial} {
		for _, s := range Strategies() {
			db := goldenDB(t, plat)
			rec := trace.New(trace.Options{Shards: 1, ShardCap: 1 << 10})
			db.SetTracer(rec)
			for typ := TxnType(0); typ < numTxnTypes; typ++ {
				p := Params{N1: CustomerName(3), N2: CustomerName(5), V: 7}
				var stmts int
				before := db.Machine().CPUBusy()
				tx := db.Begin()
				err := RunIn(tx, s, typ, p)
				if err == nil {
					stmts = tx.Stmts()
					err = tx.Commit()
				}
				if err != nil {
					t.Fatalf("%s %s %s: %v", plat, s.Name, typ.Short(), err)
				}
				cpu := db.Machine().CPUBusy() - before
				fmt.Fprintf(&b, "%s %s %s: stmts=%d cpu=%v:", plat, s.Name, typ.Short(), stmts, cpu)
				for _, ev := range rec.Drain() {
					switch ev.Kind {
					case trace.EvRead, trace.EvWrite, trace.EvSFU:
						fmt.Fprintf(&b, " %s %s/%s", ev.Kind, ev.Table, ev.Key)
					}
				}
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// renderMix runs a seeded 500-transaction serial mix under every
// strategy on both platforms and renders the commit and rollback counts
// and the final Saving, Checking and Conflict tables.
func renderMix(t *testing.T) string {
	var b strings.Builder
	for _, plat := range []core.Platform{core.PlatformPostgres, core.PlatformCommercial} {
		for _, s := range Strategies() {
			db := goldenDB(t, plat)
			rng := rand.New(rand.NewSource(42))
			commits, rollbacks := 0, 0
			for i := 0; i < 500; i++ {
				typ := TxnType(rng.Intn(NumTxnTypes))
				n1 := rng.Intn(21) // 20 is an unknown customer
				n2 := (n1 + 1 + rng.Intn(19)) % 20
				p := Params{N1: CustomerName(n1), N2: CustomerName(n2), V: rng.Int63n(60000) - 10000}
				switch err := Run(db, s, typ, p); {
				case err == nil:
					commits++
				case errors.Is(err, core.ErrRollback):
					rollbacks++
				default:
					t.Fatalf("%s %s op %d: %v", plat, s.Name, i, err)
				}
			}
			fmt.Fprintf(&b, "%s %s: commits=%d rollbacks=%d\n", plat, s.Name, commits, rollbacks)
			for _, table := range []string{TableSaving, TableChecking, TableConflict} {
				fmt.Fprintf(&b, "  %s:", table)
				if err := db.ScanLatest(table, func(k core.Value, rec core.Record) bool {
					fmt.Fprintf(&b, " %d=%d", k.Int64(), rec[1].Int64())
					return true
				}); err != nil {
					t.Fatal(err)
				}
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// TestProgramsGolden pins, per strategy × program × platform, the
// engine-call sequence, statement count and simulated CPU of one serial
// run, and the final state of a seeded serial mix, against
// testdata/programs.golden. The file was recorded from the programs as
// they stood before the SQL became their one definition, when each was
// Go code steered by per-strategy booleans: the compiled statements and
// rewrites must make the same engine calls and charges.
func TestProgramsGolden(t *testing.T) {
	got := renderPrograms(t) + renderMix(t)
	want, err := os.ReadFile("testdata/programs.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}
