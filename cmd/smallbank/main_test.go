package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildSmallbank compiles the real binary into the test's temp dir.
func buildSmallbank(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the smallbank binary")
	}
	bin := filepath.Join(t.TempDir(), "smallbank")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// small is a quick bank both arrival processes finish in well under a
// second.
var small = []string{"-customers", "200", "-hotspot", "20", "-ramp", "20ms", "-measure", "150ms", "-seed", "3"}

// run executes the binary and requires exit status 0.
func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, append(args, small...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("smallbank %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func requireLines(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("output does not contain %q:\n%s", want, out)
		}
	}
}

// TestRateRunOverWalSealsTheChain: an arrivals run over -wal ends like
// a closed loop — full WAL line, the async drain, the sealing
// checkpoint — so the next run restores that checkpoint instead of
// replaying the whole run.
func TestRateRunOverWalSealsTheChain(t *testing.T) {
	bin := buildSmallbank(t)
	dir := filepath.Join(t.TempDir(), "wal")
	out := run(t, bin, "-rate", "1500", "-wal", dir, "-wal-async")
	requireLines(t, out, "offered:", "commits/sync", "async commit: durable CSN", "checkpoint: CSN")
	out = run(t, bin, "-rate", "1500", "-wal", dir)
	requireLines(t, out, "recovered "+dir, " 0 commits replayed", "checkpoint: CSN")
}

// TestAdmissionAuditedUnderClosedLoop: the admission report — and the
// gate-leak exit check that sits with it — runs whenever -admission is
// set, not only for an open system.
func TestAdmissionAuditedUnderClosedLoop(t *testing.T) {
	bin := buildSmallbank(t)
	out := run(t, bin, "-admission", "-mpl", "8")
	requireLines(t, out, "running SI on postgres/si: MPL 8", "admission: limit", "admission gate:")
	if strings.Contains(out, "offered:") {
		t.Errorf("closed loop printed an offered-load line:\n%s", out)
	}
}

// TestAdmissionZeroGoodputFails: behind the gate, a measured window in
// which nothing commits fails the run (here every transaction's budget
// is spent before its first statement) — after the full report.
func TestAdmissionZeroGoodputFails(t *testing.T) {
	bin := buildSmallbank(t)
	out, err := exec.Command(bin, append([]string{"-rate", "1500", "-admission", "-deadline", "1us"}, small...)...).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit = %v, want status 1; output:\n%s", err, out)
	}
	requireLines(t, string(out), "throughput: 0.0 TPS", "admission gate:", "no transaction committed in the measured window")
}

// TestRateChaosAuditsInvariants: -rate with -chaos arms the fault plan
// and audits conservation and lock leaks like any other run.
func TestRateChaosAuditsInvariants(t *testing.T) {
	bin := buildSmallbank(t)
	out := run(t, bin, "-rate", "1500", "-chaos", "-check", "-mode", "2pl", "-retry", "backoff")
	requireLines(t, out, "offered:", "faults fired", "conservation: initial",
		"lock audit: 0 held, 0 queued", "online check:", "invariants: all held")
}

// TestWalFlagRejectsRegularFile runs the real binary with -wal pointed
// at an existing regular file — what the retired single-file layout
// left behind. It must exit 1 before loading anything, naming the path
// and the directory layout it expects, and must not touch the file.
func TestWalFlagRejectsRegularFile(t *testing.T) {
	bin := buildSmallbank(t)
	path := filepath.Join(t.TempDir(), "run.wal")
	if err := os.WriteFile(path, []byte("old flat log"), 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := exec.Command(bin, "-wal", path, "-customers", "10").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit = %v, want status 1; output:\n%s", err, out)
	}
	for _, want := range []string{path, "directory", "wal.0000"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output does not mention %q:\n%s", want, out)
		}
	}
	if strings.Contains(string(out), "loading") {
		t.Errorf("started loading before rejecting the path:\n%s", out)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "old flat log" {
		t.Fatalf("rejected file was modified: %q, %v", b, err)
	}
}
