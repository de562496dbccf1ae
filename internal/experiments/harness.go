package experiments

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"sicost/internal/engine"
	"sicost/internal/metrics"
	"sicost/internal/smallbank"
	"sicost/internal/workload"
)

// Config controls how much work an experiment run does. The zero value
// is filled with quick defaults (a full figure in tens of seconds); the
// cmd/sibench flags expose paper-scale settings.
type Config struct {
	// Scale multiplies every simulated-hardware duration (1 = default
	// profile; 4 ≈ the paper's hardware speed).
	Scale float64
	// Ramp and Measure are the warm-up and measurement intervals per
	// point (the paper uses 30s + 60s).
	Ramp, Measure time.Duration
	// Reps repeats each point; results carry 95% confidence intervals
	// (the paper uses 5).
	Reps int
	// MPLs is the multiprogramming-level sweep.
	MPLs []int
	// Customers is the table size (the paper loads 18000).
	Customers int
	Seed      int64
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// Defaults fills unset fields with the quick profile.
func (c Config) Defaults() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Ramp == 0 {
		c.Ramp = 100 * time.Millisecond
	}
	if c.Measure == 0 {
		c.Measure = 400 * time.Millisecond
	}
	if c.Reps == 0 {
		c.Reps = 2
	}
	if len(c.MPLs) == 0 {
		c.MPLs = []int{1, 3, 5, 10, 15, 20, 25, 30}
	}
	if c.Customers == 0 {
		c.Customers = 18000
	}
	if c.Seed == 0 {
		c.Seed = 20080407 // ICDE 2008
	}
	return c
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// Point is one measured value of a series.
type Point struct {
	// Label is the x-coordinate: an MPL ("10") or a transaction type
	// ("Balance").
	Label string
	Mean  float64
	CI    float64
}

// Series is one line of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Point returns the point with the given label, or nil.
func (s *Series) Point(label string) *Point {
	for i := range s.Points {
		if s.Points[i].Label == label {
			return &s.Points[i]
		}
	}
	return nil
}

// Result is a fully rendered experiment outcome.
type Result struct {
	ID, Title      string
	XLabel, YLabel string
	Series         []Series
	// Notes carries shape expectations and caveats shown with the data.
	Notes []string
	// Text is pre-rendered output: a static analysis, or the relative
	// panel of a throughput figure.
	Text string
}

// Experiment is one table/figure runner.
type Experiment struct {
	ID, Title string
	Run       func(cfg Config) (*Result, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table I: tables updated by each strategy", runTable1},
		{"fig1", "Figure 1: SDG for the SmallBank benchmark", runFig1},
		{"fig2", "Figure 2: SDG for Option WT", runFig2},
		{"fig3", "Figure 3: SDGs for Option BW", runFig3},
		{"fig4", "Figure 4: eliminating ALL vulnerable edges (PostgreSQL)", runFig4},
		{"fig5", "Figure 5: Option WT and BW throughput, absolute and relative to SI (PostgreSQL)", runFig5},
		{"fig6", "Figure 6: serialization-failure abort rates at MPL=20 (PostgreSQL)", runFig6},
		{"fig7", "Figure 7: high contention — hotspot 10, 60% Balance (PostgreSQL)", runFig7},
		{"fig8", "Figure 8: Option WT on the commercial platform", runFig8},
		{"fig9", "Figure 9: Option BW on the commercial platform", runFig9},
		{"anomaly", "Anomaly validation: SI corrupts, strategies do not", runAnomaly},
		{"ablation-fixedrow", "Ablation: per-customer vs single-row materialization", runAblationFixedRow},
		{"ablation-groupcommit", "Ablation: group commit on/off", runAblationGroupCommit},
		{"ablation-engine", "Extension: SSI and 2PL engine modes vs app-level strategies", runAblationEngine},
		{"ablation-hotspot", "Ablation: hotspot-size sweep between Fig 5 and Fig 7", runAblationHotspot},
		{"ablation-advisor", "Extension: analytic advisor predictions vs measured throughput", runAblationAdvisor},
		{"ablation-latency", "Ablation: mean response time over MPL", runAblationLatency},
	}
}

// ByID resolves an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, ids())
}

func ids() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}

// series is one line of a measured figure: the database it runs on and
// the workload it offers, before the figure's x-coordinate is applied.
type series struct {
	name string
	eng  engine.Config
	wl   workload.Config
}

// strategies makes one series per strategy, each on eng under wl.
func strategies(eng engine.Config, wl workload.Config, ss ...*smallbank.Strategy) []series {
	out := make([]series, len(ss))
	for i, s := range ss {
		wl.Strategy = s
		out[i] = series{s.Name, eng, wl}
	}
	return out
}

// measure runs one point of a figure under §IV's protocol (load, ramp,
// measure) cfg.Reps times. Every repetition opens a fresh database
// loaded with seed cfg.Seed and runs wl with seed
// cfg.Seed + (rep+1)·104729.
func measure(cfg Config, eng engine.Config, wl workload.Config) ([]*workload.Result, error) {
	wl.Customers, wl.Ramp, wl.Measure = cfg.Customers, cfg.Ramp, cfg.Measure
	var out []*workload.Result
	for rep := 0; rep < cfg.Reps; rep++ {
		db, _, err := smallbank.Open(eng, smallbank.LoadConfig{Customers: cfg.Customers, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		wl.Seed = cfg.Seed + int64(rep+1)*104729
		res, err := workload.Run(db, wl)
		db.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// reduce is what a figure plots for one measured point: the mean of
// metric over the repetitions, with its 95% confidence interval.
func reduce(label string, rs []*workload.Result, metric func(*workload.Result) float64) Point {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = metric(r)
	}
	mean, ci := metrics.CI95(xs)
	return Point{Label: label, Mean: mean, CI: ci}
}

func tps(r *workload.Result) float64 { return r.TPS }

func setMPL(wl *workload.Config, mpl int) { wl.MPL = mpl }

// sweep measures every series at every x and adds the lines to res: set
// puts x into the series' workload, metric reduces a repetition to the
// plotted value.
func sweep(cfg Config, res *Result, ss []series, xs []int,
	set func(*workload.Config, int), metric func(*workload.Result) float64) (*Result, error) {
	for _, s := range ss {
		cfg.logf("%s: %s", res.ID, s.name)
		line := Series{Name: s.name}
		for _, x := range xs {
			wl := s.wl
			set(&wl, x)
			rs, err := measure(cfg, s.eng, wl)
			if err != nil {
				return nil, err
			}
			p := reduce(strconv.Itoa(x), rs, metric)
			line.Points = append(line.Points, p)
			cfg.logf("  %-22s %s %-5d %10.2f ±%.2f", s.name, res.XLabel, x, p.Mean, p.CI)
		}
		res.Series = append(res.Series, line)
	}
	return res, nil
}

// throughput measures TPS over cfg.MPLs for every series.
func throughput(cfg Config, res *Result, ss []series) (*Result, error) {
	res.XLabel, res.YLabel = "MPL", "TPS"
	return sweep(cfg, res, ss, cfg.MPLs, setMPL, tps)
}

// relativeToFirst is the paper's (b) panel of a throughput figure: every
// series after the first (SI) as a percentage of it, point by point.
func relativeToFirst(abs []Series) []Series {
	var rel []Series
	for i := 1; i < len(abs); i++ {
		out := Series{Name: abs[i].Name}
		for _, p := range abs[i].Points {
			bp := abs[0].Point(p.Label)
			if bp == nil || bp.Mean == 0 {
				continue
			}
			out.Points = append(out.Points, Point{
				Label: p.Label,
				Mean:  100 * p.Mean / bp.Mean,
				CI:    100 * p.CI / bp.Mean,
			})
		}
		rel = append(rel, out)
	}
	return rel
}

// withRelative renders the (b) panel of a measured throughput figure,
// derived from its absolute Series, into its Text.
func withRelative(res *Result, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	res.Text = "\nRelative to SI (% of SI throughput):\n" +
		RenderTable(&Result{XLabel: res.XLabel, Series: relativeToFirst(res.Series)})
	return res, nil
}
