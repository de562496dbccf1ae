package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownProfileNamesExit2 runs the real binary: an unknown
// -platform or -mode exits 2 before loading anything and names the
// value it did not understand.
func TestUnknownProfileNamesExit2(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the sisql binary")
	}
	bin := filepath.Join(t.TempDir(), "sisql")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{{"-platform", "bogus"}, {"-mode", "bogus"}} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("sisql %v: exit = %v, want status 2; output:\n%s", args, err, out)
		}
		if !strings.Contains(string(out), `"bogus"`) || strings.Contains(string(out), "SQL shell") {
			t.Errorf("sisql %v: output should name the value and start no shell:\n%s", args, out)
		}
	}
}
