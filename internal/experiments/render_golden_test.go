package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// goldenResult is a fixed Result exercising every rendering path: two
// series with a hole (missing point), a CSV-hostile label, notes and
// free text.
func goldenResult() *Result {
	return &Result{
		ID:     "fig5",
		Title:  "Throughput vs MPL (hotspot 1000)",
		XLabel: "MPL",
		YLabel: "TPS",
		Series: []Series{
			{Name: "SI", Points: []Point{
				{Label: "1", Mean: 101.25, CI: 2.5},
				{Label: "10", Mean: 456.7, CI: 12.01},
				{Label: "20, hot", Mean: 512, CI: 0},
			}},
			{Name: "S2PL", Points: []Point{
				{Label: "1", Mean: 98.4, CI: 1.9},
				// "10" intentionally missing: renders as "-".
				{Label: "20, hot", Mean: 301.5, CI: 44.4},
			}},
		},
		Notes: []string{
			"SI should dominate S2PL at high MPL",
			"CIs are 95% over 3 runs",
		},
		Text: "text after the table",
	}
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden.\n--- want\n%s--- got\n%s", name, want, got)
	}
}

func TestRenderTableGolden(t *testing.T) {
	checkGolden(t, "render_table.golden", RenderTable(goldenResult()))
}

func TestRenderCSVGolden(t *testing.T) {
	checkGolden(t, "render_csv.golden", RenderCSV(goldenResult()))
}

func TestRenderFullGolden(t *testing.T) {
	checkGolden(t, "render_full.golden", Render(goldenResult()))
}

func TestRenderCSVEscaping(t *testing.T) {
	// The fixture's "20, hot" label must arrive quoted, and quotes must
	// double. This is asserted directly (not only via the golden) so the
	// rule survives a careless -update.
	r := &Result{
		Title:  "q",
		XLabel: "x",
		Series: []Series{{Name: `se"ries`, Points: []Point{{Label: "a,b", Mean: 1, CI: 0}}}},
	}
	got := RenderCSV(r)
	want := "x,\"se\"\"ries\",\"se\"\"ries\"_ci95\n\"a,b\",1.000,0.000\n"
	if got != want {
		t.Fatalf("RenderCSV escaping:\nwant %q\ngot  %q", want, got)
	}
}
