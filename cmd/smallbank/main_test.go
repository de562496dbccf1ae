package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestWalFlagRejectsRegularFile runs the real binary with -wal pointed
// at an existing regular file — what the retired single-file layout
// left behind. It must exit 1 before loading anything, naming the path
// and the directory layout it expects, and must not touch the file.
func TestWalFlagRejectsRegularFile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the smallbank binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "smallbank")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	path := filepath.Join(dir, "run.wal")
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
