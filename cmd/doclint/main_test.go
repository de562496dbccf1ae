package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExperimentRefs: an id sibench does not run is flagged wherever a
// sibench line names it; ids it runs, "all", placeholders and lines
// that are not about sibench are not.
func TestExperimentRefs(t *testing.T) {
	root := t.TempDir()
	write := func(name, text string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(filepath.Join(root, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("README.md", "```\ngo run ./cmd/sibench -exp fig5 -q\ngo run ./cmd/sibench -exp all -csv out\n```\n")
	write("DESIGN.md", "| `fig2-3` | `sibench -exp fig2` / `-exp fig3` | `cmd/sibench -exp <id>` |\n")
	write("EXPERIMENTS.md", "`sibench -exp fig4,fig5b`\nsmallbank -exp fig5a: another command\n")
	write("docs/GUIDE.md", "Regenerate with `sibench -exp=fig9b`.\n")

	problems, err := lintExperimentRefs(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"EXPERIMENTS.md:1: runs sibench -exp fig5b", "GUIDE.md:1: runs sibench -exp fig9b"}
	if len(problems) != len(want) {
		t.Fatalf("problems = %q, want %d", problems, len(want))
	}
	for _, w := range want {
		found := false
		for _, p := range problems {
			found = found || strings.Contains(p, w)
		}
		if !found {
			t.Errorf("no problem mentions %q: %q", w, problems)
		}
	}
}
