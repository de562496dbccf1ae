package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sicost/internal/sdg"
	"sicost/internal/smallbank"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

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

// TestReportGolden pins the default `sdgtool` output: the SDG analysis
// of the built-in SmallBank mix, the paper's running example. Drift here
// means the SDG theory output changed, which a reviewer should see.
func TestReportGolden(t *testing.T) {
	got, err := report(smallbank.BasePrograms(), false)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "smallbank_report.golden", got)
}

// TestDotGolden pins `sdgtool -dot`.
func TestDotGolden(t *testing.T) {
	got, err := report(smallbank.BasePrograms(), true)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "smallbank_dot.golden", got)
}

// TestInventoryReportGolden pins `sdgtool -mix testdata/inventory.json`:
// a program mix of one's own instead of SmallBank (an inventory's
// Reserve, Restock and read-only Audit), read from JSON. The read-only
// Audit is the head of its one dangerous structure, as Bal is in
// SmallBank's.
func TestInventoryReportGolden(t *testing.T) {
	progs, err := parseMix(filepath.Join("testdata", "inventory.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := report(progs, false)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "inventory_report.golden", got)
}

// TestFixedReportGolden pins `sdgtool -fix all:materialize`: the
// modification block plus the report of the repaired mix, which must
// contain no dangerous structures.
func TestFixedReportGolden(t *testing.T) {
	progs, mods, err := sdg.NeutralizeAll(smallbank.BasePrograms(), sdg.Materialize)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := report(progs, false)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "smallbank_fixed_report.golden", describeMods(mods)+rep)
}
