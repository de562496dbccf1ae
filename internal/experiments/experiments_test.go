package experiments

import (
	"strings"
	"testing"
	"time"
)

// quickCfg keeps dynamic experiment tests to a couple of seconds.
func quickCfg() Config {
	return Config{
		Scale: 0.2, // very fast simulated hardware
		Ramp:  20 * time.Millisecond, Measure: 80 * time.Millisecond,
		Reps: 1, MPLs: []int{1, 4}, Customers: 400, Seed: 7,
	}
}

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{
		"table1", "fig1", "fig2", "fig3", "fig4", "fig5",
		"fig6", "fig7", "fig8", "fig9", "anomaly",
		"ablation-fixedrow", "ablation-groupcommit", "ablation-engine", "ablation-hotspot",
		"ablation-advisor", "ablation-latency",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("experiments = %d, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("experiment %d = %s, want %s", i, all[i].ID, id)
		}
		if _, err := ByID(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestTable1(t *testing.T) {
	res, err := runTable1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"MaterializeWT", "PromoteALL", "Conf", "Sav(sfu)", "read-only Balance"} {
		if !strings.Contains(res.Text, want) {
			t.Fatalf("Table I missing %q:\n%s", want, res.Text)
		}
	}
}

func TestStaticFigures(t *testing.T) {
	res, err := runFig1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pivot WC", "Bal->WC", "WC->TS", "digraph"} {
		if !strings.Contains(res.Text, want) {
			t.Fatalf("fig1 missing %q", want)
		}
	}
	res2, err := runFig2(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res2.Text, "serializable") {
		t.Fatal("fig2 must show safe SDGs")
	}
	res3, err := runFig3(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res3.Text, "MaterializeBW") || !strings.Contains(res3.Text, "PromoteBW-upd") {
		t.Fatal("fig3 sections missing")
	}
}

func TestThroughputFigureQuick(t *testing.T) {
	cfg := quickCfg()
	res, err := runFig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) != len(cfg.MPLs) {
			t.Fatalf("%s points = %d", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Mean <= 0 {
				t.Fatalf("%s @%s: TPS %v", s.Name, p.Label, p.Mean)
			}
		}
	}
	table := RenderTable(res)
	if !strings.Contains(table, "SI") || !strings.Contains(table, "MPL") {
		t.Fatalf("table:\n%s", table)
	}
	csv := RenderCSV(res)
	if !strings.Contains(csv, "MPL,SI,SI_ci95") {
		t.Fatalf("csv header:\n%s", csv)
	}
	full := Render(res)
	if !strings.Contains(full, "## Figure 4") || !strings.Contains(full, "note:") {
		t.Fatalf("render:\n%s", full)
	}
}

func TestRelativeToFirst(t *testing.T) {
	rel := relativeToFirst([]Series{
		{Name: "SI", Points: []Point{{Label: "1", Mean: 200}, {Label: "2", Mean: 400}}},
		{Name: "X", Points: []Point{{Label: "1", Mean: 100, CI: 20}, {Label: "2", Mean: 400}}},
	})
	if len(rel) != 1 {
		t.Fatalf("series = %d", len(rel))
	}
	p1 := rel[0].Point("1")
	if p1 == nil || p1.Mean != 50 || p1.CI != 10 {
		t.Fatalf("point 1 = %+v", p1)
	}
	if p2 := rel[0].Point("2"); p2 == nil || p2.Mean != 100 {
		t.Fatalf("point 2 = %+v", p2)
	}
	if relativeToFirst(nil) != nil {
		t.Fatal("no series, no relative panel")
	}
}

func TestFig6Quick(t *testing.T) {
	cfg := quickCfg()
	res, err := runFig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 5 {
		t.Fatalf("series = %d", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) != 5 {
			t.Fatalf("%s points = %d", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Mean < 0 || p.Mean > 100 {
				t.Fatalf("%s %s: %v%%", s.Name, p.Label, p.Mean)
			}
		}
	}
}

func TestAnomalyExperiment(t *testing.T) {
	cfg := quickCfg()
	cfg.Measure = 200 * time.Millisecond
	res, err := runAnomaly(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "verdict=read-only anomaly") {
		t.Fatalf("SI scripted anomaly not observed:\n%s", res.Text)
	}
	if strings.Contains(res.Text, "FAILED") {
		t.Fatalf("a strategy failed to prevent the anomaly:\n%s", res.Text)
	}
	if strings.Contains(res.Text, "stochastic hotspot run serializable: false") {
		t.Fatalf("a strategy produced a cycle under load:\n%s", res.Text)
	}

	// The scripted schedules: one row per schedule and engine, fields
	// schedule, engine, committed, aborted, then the verdict.
	type outcome struct{ committed, aborted, verdict string }
	rows := map[string]outcome{}
	for _, line := range strings.Split(res.Text, "\n") {
		f := strings.Fields(line)
		if len(f) >= 5 {
			rows[f[0]+" "+f[1]] = outcome{f[2], f[3], strings.Join(f[4:], " ")}
		}
	}
	want := func(row string, check func(outcome) bool, what string) {
		t.Helper()
		got, ok := rows[row]
		if !ok {
			t.Fatalf("no %q row:\n%s", row, res.Text)
		}
		if !check(got) {
			t.Errorf("%s: got %+v, want %s", row, got, what)
		}
	}
	want("write-skew SI/PostgreSQL", func(o outcome) bool {
		return o.committed == "t1,t2" && o.verdict == "write skew"
	}, "both committed, write skew")
	for _, eng := range []string{"SSI", "2PL"} {
		want("write-skew "+eng, func(o outcome) bool {
			return o.aborted != "-" && o.verdict == "serializable"
		}, "an abort, serializable")
	}
	want("promotion-sfu-gap SI/PostgreSQL", func(o outcome) bool { return o.verdict == "write skew" }, "write skew")
	want("promotion-sfu-gap SI/commercial", func(o outcome) bool { return o.verdict == "serializable" }, "serializable")
	want("read-only-anomaly SI/PostgreSQL", func(o outcome) bool { return o.verdict == "read-only anomaly" }, "read-only anomaly")
}

func TestHotspotFor(t *testing.T) {
	cfg := Config{Customers: 400}
	if hotspotFor(cfg, 1000) != 200 {
		t.Fatal("clamp failed")
	}
	cfg.Customers = 18000
	if hotspotFor(cfg, 1000) != 1000 {
		t.Fatal("standard hotspot changed")
	}
}

func TestCSVEscape(t *testing.T) {
	if csvEscape("plain") != "plain" {
		t.Fatal("plain")
	}
	if csvEscape(`a,b"c`) != `"a,b""c"` {
		t.Fatalf("escaped = %s", csvEscape(`a,b"c`))
	}
}
