// Command benchspine is the repository's benchmark: five closed-loop
// SmallBank workloads — three out of process against the real
// cmd/sisqld binary over loopback TCP, two in process against the
// embedded engine — each measured end to end with tracing off, audited
// for correctness, and then traced in a separate pass that times every
// layer from outside, through its public functions. README.md has the
// workload table, the metric catalogue and the noise protocol;
// BENCHMARK.json at the repository root describes it to the driver.
//
// Usage:
//
//	bash benchspine/run.sh                      # all workloads, both passes, human table
//	bash benchspine/run.sh -json out.json       # ... plus every metric and the environment as JSON
//	bash benchspine/run.sh --workload embed-ssi --seed 7 --seconds 18 --trace 0
//	bash benchspine/run.sh -selfcheck           # two sets, compared against the bounds
//	bash benchspine/run.sh -compare a.json b.json
//
// With one --workload the last line of standard output is the driver's
// result object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	var (
		workload  = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Int64("seed", 1, "seed of the loaded balances and of every client's transaction stream")
		seconds   = flag.Float64("seconds", 20, "length of one measure window, in seconds")
		trace     = flag.Int("trace", 0, "with one -workload: 0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
		ramp      = flag.Duration("ramp", time.Second, "closed-loop ramp before each measure window")
		jsonPath  = flag.String("json", "", "also write every metric and the environment to this file")
		compare   = flag.Bool("compare", false, "compare the end-to-end metrics of two -json files given as arguments")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced set twice and compare the two")
		walDir    = flag.String("waldir", "", "parent directory of embed-durable's log segments (default: a temporary directory on /dev/shm, else "+buildDir+"/wal in the repository)")
	)
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace, *ramp, *jsonPath, *compare, *selfcheck, *walDir); err != nil {
		fmt.Fprintln(os.Stderr, "benchspine:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds float64, trace int, ramp time.Duration,
	jsonPath string, compare, selfcheck bool, walDir string) error {
	if compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two -json files")
		}
		a, err := readReport(flag.Arg(0))
		if err != nil {
			return err
		}
		b, err := readReport(flag.Arg(1))
		if err != nil {
			return err
		}
		return compareReports(os.Stdout, a, b)
	}

	root, err := repoRoot()
	if err != nil {
		return err
	}
	cfg := &runConfig{
		root: root, seed: seed, ramp: ramp, measure: time.Duration(seconds * float64(time.Second)),
		setupsBefore: defaultSetupsBefore, setupsAfter: defaultSetupsAfter, clients: clientCount(), replayBudget: 3 * time.Second, walRoot: walDir,
		outDir: filepath.Join(root, "benchspine", "out"),
	}
	defer cfg.cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		cfg.cleanup()
		os.Exit(130)
	}()
	if cfg.clients < maxClients {
		fmt.Fprintf(os.Stderr, "benchspine: %d CPU: running %d client instead of %d\n", cfg.clients, cfg.clients, maxClients)
	}

	if selfcheck {
		first, err := runSet(cfg, workloads, false)
		if err != nil {
			return err
		}
		second, err := runSet(cfg, workloads, false)
		if err != nil {
			return err
		}
		return compareReports(os.Stdout, first, second)
	}

	if workload != "all" {
		spec := workloadByName(workload)
		if spec == nil {
			return fmt.Errorf("unknown workload %q", workload)
		}
		res, err := cfg.run(spec, trace == 1)
		if err != nil {
			return err
		}
		rep := newReport(cfg, []*result{res})
		printTable(os.Stdout, rep)
		if err := writeReport(jsonPath, rep); err != nil {
			return err
		}
		// The driver's contract: one JSON object, last on standard output.
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, contractMetrics(res)})
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
		return nil
	}

	rep, err := runSet(cfg, workloads, true)
	if err != nil {
		return err
	}
	printTable(os.Stdout, rep)
	return writeReport(jsonPath, rep)
}

// runSet runs the given workloads one after another, never
// concurrently: the untraced pass of each and, when traced is set, its
// traced pass right after.
func runSet(cfg *runConfig, specs []workloadSpec, traced bool) (*report, error) {
	var results []*result
	for i := range specs {
		passes := []bool{false}
		if traced {
			passes = append(passes, true)
		}
		for _, tr := range passes {
			fmt.Fprintf(os.Stderr, "benchspine: %s (traced=%v)...\n", specs[i].Name, tr)
			res, err := cfg.run(&specs[i], tr)
			if err != nil {
				return nil, err
			}
			results = append(results, res)
		}
	}
	return newReport(cfg, results), nil
}

// contractMetrics strips a result's figures down to what the driver
// reads: value and unit.
func contractMetrics(res *result) map[string]metricValue {
	out := make(map[string]metricValue, len(res.Metrics))
	for name, v := range res.Metrics {
		out[name] = metricValue{Value: v.Value, Unit: v.Unit}
	}
	return out
}
