package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// environment records where and how a report was measured.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	RampS      float64 `json:"ramp_s"`
	MeasureS   float64 `json:"measure_s"`
	Clients    int     `json:"clients"`
	// WALDir is where embed-durable kept its log segments, and WALDirFS
	// that directory's filesystem; empty when no durable workload ran.
	WALDir   string `json:"wal_dir,omitempty"`
	WALDirFS string `json:"wal_dir_fs,omitempty"`
}

// report is the -json file: every metric of every pass, and the
// environment.
type report struct {
	Env     environment `json:"env"`
	Results []*result   `json:"results"`
}

func newReport(cfg *runConfig, results []*result) *report {
	commit := "unknown" // a driver checkout is not a git repository
	if out, err := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	rep := &report{
		Env: environment{
			Commit: commit, GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: cfg.seed, RampS: cfg.ramp.Seconds(),
			MeasureS: cfg.measure.Seconds(), Clients: cfg.clients,
		},
		Results: results,
	}
	if cfg.walRoot != "" { // a durable workload ran
		rep.Env.WALDir, rep.Env.WALDirFS = cfg.walRoot, filesystemOf(cfg.walRoot)
	}
	return rep
}

// filesystemOf names the filesystem holding dir by its statfs magic
// number.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

func writeReport(path string, rep *report) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// printTable prints every metric of every pass by name, with its unit
// and sample count.
func printTable(w io.Writer, rep *report) {
	e := rep.Env
	fmt.Fprintf(w, "commit %s  %s  nproc %d  GOMAXPROCS %d  seed %d  ramp %.1fs  measure %.1fs  clients %d  wal %s (%s)\n",
		e.Commit, e.GoVersion, e.NProc, e.GOMAXPROCS, e.Seed, e.RampS, e.MeasureS, e.Clients, e.WALDir, e.WALDirFS)
	for _, res := range rep.Results {
		pass, specs := "untraced: end-to-end metrics", endToEnd
		if res.Traced {
			pass, specs = "traced: per-layer metrics", perLayer
		}
		fmt.Fprintf(w, "\n%s  (%s; attempted %d, failed %d, audits passed)\n", res.Workload, pass, res.Attempted, res.Failed)
		for _, ms := range specs {
			v := res.Metrics[ms.Name]
			note := ""
			if v.Derived {
				note = "  derived"
			}
			fmt.Fprintf(w, "  %-28s %14.4f %-6s n=%d%s\n", ms.Name, v.Value, v.Unit, v.Samples, note)
		}
	}
}

// compareReports prints, per workload and end-to-end metric, both
// values, their relative difference and the bound, and returns an error
// if any metric of b is worse than a's by more than its bound. A metric
// inside its bound reads "unresolved" instead of "unchanged" when in
// either run the odd and the even slices alone give figures further
// apart than the bound: the runs cannot tell.
func compareReports(w io.Writer, a, b *report) error {
	untraced := func(rep *report) map[string]*result {
		m := map[string]*result{}
		for _, res := range rep.Results {
			if !res.Traced {
				m[res.Workload] = res
			}
		}
		return m
	}
	ra, rb := untraced(a), untraced(b)
	var names []string
	for name := range ra {
		if rb[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("compare: the two reports share no untraced workload")
	}
	worse := 0
	fmt.Fprintf(w, "%-24s %-12s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "diff", "bound", "verdict")
	for _, name := range names {
		for _, ms := range endToEnd {
			va, vb := ra[name].Metrics[ms.Name], rb[name].Metrics[ms.Name]
			if va.Value == 0 {
				continue
			}
			diff := (vb.Value - va.Value) / va.Value
			regress := diff
			if ms.Better == "higher" {
				regress = -diff
			}
			verdict := "unchanged"
			switch noise := max(splitHalf(va.Slices), splitHalf(vb.Slices)); {
			case regress > ms.Bound:
				verdict = "REGRESSION"
				worse++
			case noise > ms.Bound:
				verdict = fmt.Sprintf("unresolved (odd and even slices %.1f%% apart)", 100*noise)
			case -regress > ms.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-24s %-12s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				name, ms.Name, va.Value, vb.Value, 100*diff, 100*ms.Bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("compare: %d metric(s) outside their bound", worse)
	}
	return nil
}
