package advisor

import (
	"strings"
	"testing"
	"time"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/sdg"
	"sicost/internal/simres"
	"sicost/internal/smallbank"
	"sicost/internal/wal"
)

func smallBankWeights(balFrac float64) map[string]float64 {
	rest := (1 - balFrac) / 4
	return map[string]float64{
		"Bal": balFrac, "DC": rest, "TS": rest, "Amg": rest, "WC": rest,
	}
}

// The platform profiles mirror internal/experiments/profiles.go; they
// are duplicated here because experiments imports this package.
func postgresPlatform() Platform {
	return Platform{
		Name: core.PlatformPostgres,
		Res: simres.Config{
			VirtualCPUs: 1,
			TxnCPU:      300 * time.Microsecond,
			StmtCPU:     40 * time.Microsecond,
		},
		Fsync: 2500 * time.Microsecond,
		Cost:  engine.DefaultCostModel(core.PlatformPostgres),
	}
}

func commercialPlatform() Platform {
	return Platform{
		Name: core.PlatformCommercial,
		Res: simres.Config{
			VirtualCPUs:      1,
			TxnCPU:           300 * time.Microsecond,
			StmtCPU:          50 * time.Microsecond,
			UpdaterCommitCPU: 400 * time.Microsecond,
			SessionKnee:      20,
			SessionOverhead:  55 * time.Microsecond,
		},
		Fsync: 2500 * time.Microsecond,
		Cost:  engine.DefaultCostModel(core.PlatformCommercial),
	}
}

func standardWorkload(mpl int) Workload {
	return Workload{
		Weights:     smallBankWeights(0.2),
		HotspotSize: 1000, HotspotProb: 0.9,
		MPL: mpl,
	}
}

func TestPredictBasics(t *testing.T) {
	base := smallbank.BasePrograms()
	w := standardWorkload(20)
	p := Predict(base, nil, w, postgresPlatform())
	if p.TPS <= 0 {
		t.Fatal("no throughput predicted")
	}
	// 4 of 5 programs write.
	if p.UpdaterFraction < 0.79 || p.UpdaterFraction > 0.81 {
		t.Fatalf("updater fraction = %v", p.UpdaterFraction)
	}
	// At MPL 1 throughput is response-time-bound and far below MPL 20.
	low := Predict(base, nil, standardWorkload(1), postgresPlatform())
	if low.TPS >= p.TPS {
		t.Fatalf("MPL1 %v >= MPL20 %v", low.TPS, p.TPS)
	}
	// The MPL=1 prediction should be in the ballpark of the measured
	// engine (~300-350 TPS with the same profile).
	if low.TPS < 150 || low.TPS > 600 {
		t.Fatalf("MPL1 prediction %v implausible", low.TPS)
	}
}

func TestPredictBWBeatsNothingAtMPL1(t *testing.T) {
	// The model must reproduce the paper's §IV-D result: turning
	// Balance into an updater costs ~20% at MPL 1.
	base := smallbank.BasePrograms()
	g := sdg.MustNew(base...)
	bw, mods, err := sdg.Neutralize(base, g.Edge("Bal", "WC"), sdg.PromoteUpdate)
	if err != nil {
		t.Fatal(err)
	}
	w := standardWorkload(1)
	plat := postgresPlatform()
	basePred := Predict(base, nil, w, plat)
	bwPred := Predict(bw, mods, w, plat)
	rel := bwPred.TPS / basePred.TPS
	if rel < 0.7 || rel > 0.92 {
		t.Fatalf("PromoteBW at MPL1 predicted at %.0f%% of SI, want ~80%%", 100*rel)
	}

	// Option WT keeps Balance read-only: nearly free at MPL 1.
	wt, modsWT, err := sdg.Neutralize(base, g.Edge("WC", "TS"), sdg.PromoteUpdate)
	if err != nil {
		t.Fatal(err)
	}
	wtPred := Predict(wt, modsWT, w, plat)
	if wtPred.TPS/basePred.TPS < 0.95 {
		t.Fatalf("PromoteWT at MPL1 predicted at %.0f%% of SI, want ~100%%", 100*wtPred.TPS/basePred.TPS)
	}
}

func TestAdviseRanksWTFirstOnPostgres(t *testing.T) {
	preds, err := Advise(smallbank.BasePrograms(), standardWorkload(20), postgresPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) < 4 {
		t.Fatalf("options = %d", len(preds))
	}
	// The paper's guidelines: repair WT rather than BW, promote rather
	// than materialize on PostgreSQL. The top-ranked sound option must
	// be the WT promotion.
	top := preds[0]
	if !top.Sound {
		t.Fatal("top option must be sound")
	}
	if !strings.Contains(top.Option.Name, "WC->TS") || top.Option.Technique != sdg.PromoteUpdate {
		t.Fatalf("top option = %s (%s), want WC->TS promote-upd", top.Option.Name, top.Option.Technique)
	}
	// The ALL strategies must rank below the corresponding targeted
	// repair.
	rank := map[string]int{}
	for i, p := range preds {
		rank[p.Option.Name] = i
	}
	if rank["all:materialize"] < rank["WC->TS:materialize"] {
		t.Fatal("MaterializeALL ranked above MaterializeWT")
	}
	if rank["all:promote-upd"] < rank["WC->TS:promote-upd"] {
		t.Fatal("PromoteALL ranked above PromoteWT")
	}
}

func TestAdviseSfuSoundnessPerPlatform(t *testing.T) {
	pg, err := Advise(smallbank.BasePrograms(), standardWorkload(20), postgresPlatform())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pg {
		if p.Option.Technique == sdg.PromoteSFU && p.Sound {
			t.Fatal("sfu promotion marked sound on PostgreSQL")
		}
	}
	cm, err := Advise(smallbank.BasePrograms(), standardWorkload(20), commercialPlatform())
	if err != nil {
		t.Fatal(err)
	}
	foundSfu := false
	for _, p := range cm {
		if p.Option.Technique == sdg.PromoteSFU {
			foundSfu = true
			if !p.Sound {
				t.Fatal("sfu promotion must be sound on the commercial platform")
			}
		}
	}
	if !foundSfu {
		t.Fatal("no sfu option enumerated")
	}
	// Guideline 4 reversal: on the commercial platform the materialized
	// WT repair must outrank the promoted-update WT repair.
	rank := map[string]int{}
	for i, p := range cm {
		rank[p.Option.Name] = i
	}
	if rank["WC->TS:materialize"] > rank["WC->TS:promote-upd"] {
		t.Fatal("commercial platform must favour materialization over promote-upd")
	}
}

func TestAdviseHighContentionPenalizesMaterializedHotRows(t *testing.T) {
	// At hotspot 10 with 60% Balance, repairs that put writes into
	// Balance (BW) must be predicted well below WT repairs.
	w := Workload{
		Weights:     smallBankWeights(0.6),
		HotspotSize: 10, HotspotProb: 0.9, MPL: 20,
	}
	preds, err := Advise(smallbank.BasePrograms(), w, postgresPlatform())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Prediction{}
	for _, p := range preds {
		byName[p.Option.Name] = p
	}
	wt := byName["WC->TS:promote-upd"]
	bw := byName["Bal->WC:materialize"]
	if wt.TPS == 0 || bw.TPS == 0 {
		t.Fatalf("options missing: %+v", preds)
	}
	if bw.TPS >= wt.TPS {
		t.Fatalf("high contention: BW (%v) predicted >= WT (%v)", bw.TPS, wt.TPS)
	}
	if bw.AbortWaste <= wt.AbortWaste {
		t.Fatalf("BW waste %v <= WT waste %v", bw.AbortWaste, wt.AbortWaste)
	}
}

func TestAdviseSafeMixRejected(t *testing.T) {
	progs, _, err := sdg.NeutralizeAll(smallbank.BasePrograms(), sdg.PromoteUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Advise(progs, standardWorkload(10), postgresPlatform()); err == nil {
		t.Fatal("safe mix must be rejected")
	}
}

func TestRender(t *testing.T) {
	preds, err := Advise(smallbank.BasePrograms(), standardWorkload(20), postgresPlatform())
	if err != nil {
		t.Fatal(err)
	}
	out := Render(preds)
	for _, want := range []string{"option", "pred. TPS", "WC->TS", "all:materialize"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFixedRowCollisionsDominates(t *testing.T) {
	// The fixed-row materialization must be predicted to waste far more
	// than the per-customer row under contention.
	base := smallbank.BasePrograms()
	g := sdg.MustNew(base...)
	perCust, modsA, err := sdg.Neutralize(base, g.Edge("WC", "TS"), sdg.Materialize)
	if err != nil {
		t.Fatal(err)
	}
	fixed, modsB, err := sdg.MaterializeFixedRow(base, g.Edge("WC", "TS"))
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{Weights: smallBankWeights(0.2), HotspotSize: 10, HotspotProb: 0.9, MPL: 20}
	plat := postgresPlatform()
	a := Predict(perCust, modsA, w, plat)
	b := Predict(fixed, modsB, w, plat)
	if b.TPS >= a.TPS {
		t.Fatalf("fixed row (%v) predicted >= per-customer (%v)", b.TPS, a.TPS)
	}
	if b.AbortWaste <= a.AbortWaste {
		t.Fatalf("fixed-row waste %v <= per-customer %v", b.AbortWaste, a.AbortWaste)
	}
}

// TestProgramCostMatchesEngine holds the model's per-program costs to
// what the engine does: for every strategy and program on both platform
// profiles, one serial smallbank.Run against the profile's simulated log
// spends exactly service time plus updater tax of simulated CPU; it
// logs and syncs its commit exactly when the model counts the program
// an updater (Predict's UpdaterFraction and programCost's log wait);
// and the model's log wait is 1.5·Fsync for each sync it waited for.
// On PostgreSQL a FOR UPDATE lock commits read-only, so PromoteBW-sfu's
// Balance, which writes only through its FOR UPDATE, commits read-only
// there.
func TestProgramCostMatchesEngine(t *testing.T) {
	for _, plat := range []Platform{postgresPlatform(), commercialPlatform()} {
		cost := plat.Cost
		db, _, err := smallbank.Open(engine.Config{
			Mode: core.SnapshotFUW, Platform: plat.Name, Res: plat.Res, Cost: &cost,
			WAL: wal.Config{FsyncLatency: plat.Fsync},
		}, smallbank.LoadConfig{Customers: 10, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		sfuOnly := 0
		for _, s := range smallbank.Strategies() {
			progs, err := s.SDGPrograms()
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range progs {
				typ := smallbank.TxnType(i)
				service, tax, walWait := programCost(p, s.Modifications(), plat)
				updater := Predict(progs, s.Modifications(), Workload{
					Weights: map[string]float64{p.Name: 1}, MPL: 1,
				}, plat).UpdaterFraction == 1
				cpu, log := db.Machine().CPUBusy(), db.WAL().Stats()
				if err := smallbank.Run(db, s, typ, smallbank.Params{
					N1: smallbank.CustomerName(1), N2: smallbank.CustomerName(2), V: 1,
				}); err != nil {
					t.Fatalf("%s %s %s: %v", plat.Name, s.Name, typ.Short(), err)
				}
				if got := db.Machine().CPUBusy() - cpu; service+tax != got {
					t.Errorf("%s %s %s: model %v + %v, engine charged %v",
						plat.Name, s.Name, p.Name, service, tax, got)
				}
				after := db.WAL().Stats()
				records, syncs := after.Records-log.Records, after.Syncs-log.Syncs
				if logged := records > 0; updater != logged || (walWait > 0) != logged {
					t.Errorf("%s %s %s: model counts an updater %v (log wait %v), engine logged %d commits",
						plat.Name, s.Name, p.Name, updater, walWait, records)
				}
				if want := time.Duration(float64(syncs) * 1.5 * float64(plat.Fsync)); walWait != want {
					t.Errorf("%s %s %s: model log wait %v, engine waited for %d syncs (%v)",
						plat.Name, s.Name, p.Name, walWait, syncs, want)
				}
				if !p.ReadOnly() && records == 0 {
					sfuOnly++
				}
			}
		}
		// The case the updater decision turns on must be in the table:
		// on PostgreSQL a program that writes only through its FOR
		// UPDATE commits read-only.
		if plat.Name == core.PlatformPostgres && sfuOnly == 0 {
			t.Errorf("%s: no program wrote only through a FOR UPDATE", plat.Name)
		}
	}
}
