package experiments

import (
	"slices"
	"strings"
	"testing"
	"time"

	"sicost/internal/core"
)

func tinyCfg() Config {
	return Config{
		Scale: 0.1,
		Ramp:  10 * time.Millisecond, Measure: 60 * time.Millisecond,
		Reps: 1, MPLs: []int{2}, Customers: 300, Seed: 11,
	}
}

// checkRelativePanel holds a figure with a relative panel to its shape:
// Series is the absolute panel, SI first, and Text renders the relative
// panel derived from it, in which SI is the baseline and not a series.
func checkRelativePanel(t *testing.T, res *Result, series int) {
	t.Helper()
	if len(res.Series) != series || res.Series[0].Name != "SI" {
		t.Fatalf("absolute panel: %d series, first %q", len(res.Series), res.Series[0].Name)
	}
	rel := relativeToFirst(res.Series)
	if len(rel) != series-1 {
		t.Fatalf("relative series = %d", len(rel))
	}
	for _, s := range rel {
		if s.Name == "SI" {
			t.Fatal("baseline must not appear in the relative figure")
		}
		for _, p := range s.Points {
			if p.Mean <= 0 || p.Mean > 400 {
				t.Fatalf("%s@%s = %v%%: implausible relative throughput", s.Name, p.Label, p.Mean)
			}
		}
	}
	if want := RenderTable(&Result{XLabel: res.XLabel, Series: rel}); !strings.Contains(res.Text, want) {
		t.Fatalf("Text does not carry the relative panel:\n%s", res.Text)
	}
	if RenderCSV(res) == "" {
		t.Fatal("no CSV for the absolute panel")
	}
}

func TestFig5Quick(t *testing.T) {
	res, err := runFig5(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkRelativePanel(t, res, 5)
}

func TestFig8Quick(t *testing.T) {
	res, err := runFig8(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkRelativePanel(t, res, 4)
	if !strings.Contains(res.Text, "PromoteWT-sfu") {
		t.Fatal("sfu series missing")
	}
}

func TestFig9Quick(t *testing.T) {
	res, err := runFig9(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkRelativePanel(t, res, 4)
	if !strings.Contains(res.Text, "PromoteBW-sfu") {
		t.Fatalf("fig9 output:\n%s", res.Text)
	}
}

func TestFig7Quick(t *testing.T) {
	cfg := tinyCfg()
	res, err := runFig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 7 {
		t.Fatalf("series = %d", len(res.Series))
	}
}

func TestAblationGroupCommitQuick(t *testing.T) {
	cfg := tinyCfg()
	cfg.MPLs = []int{8}
	res, err := runAblationGroupCommit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	gc := res.Series[0].Points[0].Mean
	nogc := res.Series[1].Points[0].Mean
	if gc <= 0 || nogc <= 0 {
		t.Fatal("no throughput measured")
	}
	// With group commit off, the log device serializes updaters; at
	// MPL 8 the batched configuration must be at least as fast.
	if nogc > gc*1.15 {
		t.Fatalf("no-group-commit (%v) beat group commit (%v)", nogc, gc)
	}
}

func TestAblationEngineQuick(t *testing.T) {
	res, err := runAblationEngine(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 {
		t.Fatalf("series = %d", len(res.Series))
	}
	names := []string{"SI (unsafe)", "PromoteWT-upd", "SSI engine", "2PL engine"}
	for i, s := range res.Series {
		if s.Name != names[i] {
			t.Fatalf("series %d = %s", i, s.Name)
		}
		if s.Points[0].Mean <= 0 {
			t.Fatalf("%s produced no throughput", s.Name)
		}
	}
}

func TestAblationFixedRowQuick(t *testing.T) {
	res, err := runAblationFixedRow(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d", len(res.Series))
	}
}

func TestAblationHotspotQuick(t *testing.T) {
	cfg := tinyCfg()
	res, err := runAblationHotspot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d", len(res.Series))
	}
	// 300 customers: the 300 and 1000 hotspots both clamp to 150, which
	// is measured once and labelled as what it is.
	want := []string{"10", "30", "100", "150"}
	for _, s := range res.Series {
		var got []string
		for _, p := range s.Points {
			got = append(got, p.Label)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s hotspot labels = %v, want %v", s.Name, got, want)
		}
	}
}

func TestAblationAdvisorQuick(t *testing.T) {
	cfg := tinyCfg()
	res, err := runAblationAdvisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"predicted", "measured", "rank agreement", "advisor recommendation: WC->TS:promote-upd"} {
		if !strings.Contains(res.Text, want) {
			t.Fatalf("advisor ablation missing %q:\n%s", want, res.Text)
		}
	}
}

func TestAblationLatencyQuick(t *testing.T) {
	cfg := tinyCfg()
	// Full scale, not tinyCfg's 0.1: the asserted signal (queueing delay on
	// the simulated single CPU) must dominate the per-transaction real CPU
	// cost, which the race detector inflates ~10x. At scale 0.1 the two are
	// the same order of magnitude and the comparison below is noise.
	cfg.Scale = 1.0
	cfg.Measure = 100 * time.Millisecond
	cfg.MPLs = []int{1, 6}
	res, err := runAblationLatency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d", len(res.Series))
	}
	// Response time must rise with MPL once the CPU is saturated.
	si := res.Series[0]
	if si.Points[1].Mean <= si.Points[0].Mean {
		t.Fatalf("latency did not grow with MPL: %+v", si.Points)
	}
}

func TestProfilesScale(t *testing.T) {
	pg := PostgresResources(2)
	if pg.TxnCPU != 600*time.Microsecond {
		t.Fatalf("scaled TxnCPU = %v", pg.TxnCPU)
	}
	cm := CommercialResources(1)
	if cm.SessionKnee != 20 || cm.SessionOverhead == 0 {
		t.Fatal("commercial knee lost")
	}
	if LogDevice(2).FsyncLatency != 5*time.Millisecond {
		t.Fatal("log device scale")
	}
	if PostgresDB(1).Cost == nil || CommercialDB(1).Cost == nil {
		t.Fatal("profiles must pin their cost models")
	}
	if PostgresDB(1).Platform != core.PlatformPostgres || CommercialDB(1).Platform != core.PlatformCommercial {
		t.Fatal("profiles must name their platforms")
	}
	if PostgresDB(1).Mode != CommercialDB(1).Mode {
		t.Fatal("both platforms run SI")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.Defaults()
	if cfg.Scale != 1 || cfg.Reps != 2 || cfg.Customers != 18000 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if len(cfg.MPLs) != 8 {
		t.Fatalf("MPL sweep = %v", cfg.MPLs)
	}
	// Explicit values survive.
	cfg2 := Config{Scale: 3, Reps: 7}.Defaults()
	if cfg2.Scale != 3 || cfg2.Reps != 7 {
		t.Fatal("Defaults clobbered explicit values")
	}
}
