package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestCatalogMatchesBenchmarkJSON pins BENCHMARK.json, which the driver
// reads, to catalog.go, which the program reports from.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var gated []workloadSpec
	for _, w := range workloads {
		if w.Gated {
			gated = append(gated, w)
		}
	}
	if len(doc.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d workloads, catalog gates %d", len(doc.Workloads), len(gated))
	}
	for i, w := range gated {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, catalog %q / %q", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, got []jsonMetric, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, catalog %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i] != (jsonMetric{m.Name, m.Unit, m.Better, m.Bound}) {
				t.Errorf("%s %d: BENCHMARK.json %+v, catalog %+v", kind, i, got[i], m)
			}
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s: bad or repeated metric name %q", kind, m.Name)
			}
			seen[m.Name] = true
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// TestSmoke runs both passes of every workload on short windows: the
// audits must pass, the reported metric names must be exactly the
// catalogue's, and the trace file must parse with every span's parent
// present.
func TestSmoke(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := &runConfig{
		root: root, seed: 3, ramp: 50 * time.Millisecond, measure: 300 * time.Millisecond,
		setupsBefore: 1, setupsAfter: 1, clients: clientCount(), replayBudget: 200 * time.Millisecond,
		walRoot: t.TempDir(), outDir: t.TempDir(),
	}
	for i := range workloads {
		spec := &workloads[i]
		t.Run(spec.Name, func(t *testing.T) {
			if spec.Wire && testing.Short() {
				t.Skip("builds and runs the sisqld binary")
			}
			for _, traced := range []bool{false, true} {
				res, err := cfg.run(spec, traced)
				if err != nil {
					t.Fatal(err)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, catalogue has %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					if _, ok := res.Metrics[m.Name]; !ok {
						t.Errorf("traced=%v: metric %s missing", traced, m.Name)
					}
				}
				if !res.Correct || res.Attempted < 1 {
					t.Errorf("traced=%v: correct=%v attempted=%d", traced, res.Correct, res.Attempted)
				}
				if !traced {
					for _, m := range endToEnd {
						if v := res.Metrics[m.Name].Value; !(v > 0) {
							t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, v)
						}
					}
				}
			}
			checkTraceFile(t, filepath.Join(cfg.outDir, spec.Name+".trace.jsonl"))
		})
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type line struct {
		Trace, ID, Parent uint32
		Layer, Name       string
		Start             int64 `json:"start_ns"`
		End               int64 `json:"end_ns"`
	}
	var spans []line
	ids := map[uint32]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("%s: %v in %q", path, err, sc.Text())
		}
		if ids[l.ID] || l.ID == 0 {
			t.Fatalf("%s: span id %d repeated or zero", path, l.ID)
		}
		ids[l.ID] = true
		spans = append(spans, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	for _, l := range spans {
		if l.Parent != 0 && !ids[l.Parent] {
			t.Errorf("%s: span %d (%s.%s) has absent parent %d", path, l.ID, l.Layer, l.Name, l.Parent)
		}
		if l.End < l.Start || l.Layer == "" || l.Name == "" {
			t.Errorf("%s: malformed span %+v", path, l)
		}
	}
}

// TestSliceFigures pins the two ways a run's repetitions become one
// figure, and the run's own repeatability.
func TestSliceFigures(t *testing.T) {
	tps := []float64{100, 98, 60, 102, 99, 61, 101, 97} // a neighbour took two of the seconds
	if got := median(tps); got != 98.5 {
		t.Errorf("median(tps) = %v, want 98.5", got)
	}
	if got := splitHalf(tps); got > 0.05 {
		t.Errorf("splitHalf = %v, want under 0.05", got)
	}
	setups := []float64{0.25, 0.21, 0.20, 0.22, 0.35, 0.75, 0.36, 0.34} // the second group hit a slow spell
	if got := lowerQuartile(setups); got != 0.22 {
		t.Errorf("lowerQuartile(setups) = %v, want 0.22", got)
	}
	if got := lowerQuartile(nil); got != 0 {
		t.Errorf("lowerQuartile(nil) = %v, want 0", got)
	}
}

func TestCompareReports(t *testing.T) {
	mk := func(tps float64, slices []float64) *report {
		return &report{Results: []*result{{Workload: "embed-ssi", Metrics: map[string]metricValue{
			"tps":        {Value: tps, Slices: slices},
			"txn_p50_us": {Value: 10, Slices: []float64{10, 10, 10, 10, 10}},
			"txn_p95_us": {Value: 80, Slices: []float64{80, 80, 80, 80, 80}},
			"setup_s":    {Value: 0.2, Slices: []float64{0.2, 0.2, 0.2}},
		}}}}
	}
	steady := []float64{100, 101, 99, 100, 100}
	var out bytes.Buffer
	if err := compareReports(&out, mk(100, steady), mk(80, steady)); err != nil {
		t.Errorf("20%% under a 25%% bound: %v\n%s", err, out.String())
	}
	if err := compareReports(&out, mk(100, steady), mk(70, steady)); err == nil {
		t.Errorf("30%% under a 25%% bound passed\n%s", out.String())
	}
	out.Reset()
	noisy := []float64{60, 140, 62, 138, 58, 142, 61, 139} // odd and even slices disagree
	if err := compareReports(&out, mk(100, noisy), mk(98, steady)); err != nil {
		t.Error(err)
	}
	if !bytes.Contains(out.Bytes(), []byte("unresolved")) {
		t.Errorf("odd and even slices further apart than the bound must read unresolved:\n%s", out.String())
	}
}
