// Command sibench regenerates the tables and figures of "The Cost of
// Serializability on Platforms That Use Snapshot Isolation" (ICDE 2008)
// on the simulated platforms of this repository.
//
// Usage:
//
//	sibench -exp fig5                  # one figure, quick profile
//	sibench -exp all -reps 5 -measure 10s -ramp 3s   # closer to paper scale
//	sibench -exp fig7 -csv out/        # also write CSV series
//	sibench -list
//
// Every measured point of every figure goes through one loop (load,
// ramp, measure, -reps times; internal/experiments). A figure with a
// relative panel (5, 8, 9) prints it after the absolute one; its CSV
// holds the absolute series.
//
// The quick defaults regenerate a figure in seconds; the paper's own
// protocol (30s ramp, 60s measurement, 5 repetitions, MPL 1..30) is
// reachable through the flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sicost/internal/experiments"
)

func main() {
	var (
		expFlag   = flag.String("exp", "", "experiment id(s), comma-separated, or 'all'")
		list      = flag.Bool("list", false, "list available experiments")
		scale     = flag.Float64("scale", 1.0, "simulated-hardware time scale (1 = default profile, 4 ≈ paper hardware)")
		ramp      = flag.Duration("ramp", 200*time.Millisecond, "warm-up interval per point (paper: 30s)")
		measure   = flag.Duration("measure", 1*time.Second, "measurement interval per point (paper: 60s)")
		reps      = flag.Int("reps", 2, "repetitions per point (paper: 5)")
		mpls      = flag.String("mpls", "1,3,5,10,15,20,25,30", "comma-separated MPL sweep")
		customers = flag.Int("customers", 18000, "customers loaded (paper: 18000)")
		seed      = flag.Int64("seed", 20080407, "base random seed")
		csvDir    = flag.String("csv", "", "directory to write per-experiment CSV files")
		quiet     = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-22s %s\n", e.ID, e.Title)
		}
		return
	}
	if *expFlag == "" {
		fmt.Fprintln(os.Stderr, "sibench: -exp required (or -list); e.g. -exp fig5")
		os.Exit(2)
	}

	cfg := experiments.Config{
		Scale: *scale, Ramp: *ramp, Measure: *measure,
		Reps: *reps, Customers: *customers, Seed: *seed,
	}
	if !*quiet {
		cfg.Log = os.Stderr
	}
	for _, part := range strings.Split(*mpls, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintf(os.Stderr, "sibench: bad -mpls entry %q: %v\n", part, err)
			os.Exit(2)
		}
		cfg.MPLs = append(cfg.MPLs, n)
	}

	var ids []string
	if *expFlag == "all" {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*expFlag, ",")
	}

	for _, id := range ids {
		id = strings.TrimSpace(id)
		exp, err := experiments.ByID(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sibench:", err)
			os.Exit(2)
		}
		start := time.Now()
		res, err := exp.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sibench: %s failed: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(experiments.Render(res))
		if !*quiet {
			fmt.Fprintf(os.Stderr, "[%s done in %v]\n", id, time.Since(start).Round(time.Millisecond))
		}
		if *csvDir != "" && len(res.Series) > 0 {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "sibench:", err)
				os.Exit(1)
			}
			path := filepath.Join(*csvDir, res.ID+".csv")
			if err := os.WriteFile(path, []byte(experiments.RenderCSV(res)), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "sibench:", err)
				os.Exit(1)
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "[wrote %s]\n", path)
			}
		}
	}
}
