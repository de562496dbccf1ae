package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writer returns a helper that writes a file under root, creating its
// directory.
func writer(t *testing.T, root string) func(name, text string) {
	return func(name, text string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(filepath.Join(root, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// wantProblems fails unless problems holds exactly one entry per want,
// each containing it.
func wantProblems(t *testing.T, problems, want []string) {
	t.Helper()
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

// TestLintFromDotRoot: run as `doclint .` (the default, and what `make
// docs` runs), the walk still enters the tree; a root named "." is not
// a hidden directory to skip.
func TestLintFromDotRoot(t *testing.T) {
	root := t.TempDir()
	writer(t, root)("pkg/x.go", "package pkg\n")
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, dot := range []string{".", "./"} {
		problems, err := lint(dot)
		if err != nil {
			t.Fatal(err)
		}
		wantProblems(t, problems, []string{"package pkg has no package doc comment"})
	}
}

// TestExperimentRefs: an id sibench does not run is flagged wherever a
// sibench line names it; ids it runs, "all", placeholders and lines
// that are not about sibench are not.
func TestExperimentRefs(t *testing.T) {
	root := t.TempDir()
	write := writer(t, root)
	write("README.md", "```\ngo run ./cmd/sibench -exp fig5 -q\ngo run ./cmd/sibench -exp all -csv out\n```\n")
	write("DESIGN.md", "| `fig2-3` | `sibench -exp fig2` / `-exp fig3` | `cmd/sibench -exp <id>` |\n")
	write("EXPERIMENTS.md", "`sibench -exp fig4,fig5b`\nsmallbank -exp fig5a: another command\n")
	write("docs/GUIDE.md", "Regenerate with `sibench -exp=fig9b`.\n")

	problems, err := lintExperimentRefs(root)
	if err != nil {
		t.Fatal(err)
	}
	wantProblems(t, problems, []string{"EXPERIMENTS.md:1: runs sibench -exp fig5b", "GUIDE.md:1: runs sibench -exp fig9b"})
}

// TestRunTargets: a `go run` of a directory that is gone, or that holds
// a library or only tests, is flagged; a command's directory is not,
// with or without a trailing slash and arguments.
func TestRunTargets(t *testing.T) {
	root := t.TempDir()
	write := writer(t, root)
	write("cmd/tool/main.go", "// Command tool does nothing.\npackage main\n\nfunc main() {}\n")
	write("lib/lib.go", "// Package lib is a library.\npackage lib\n")
	write("onlytests/x_test.go", "package main\n")
	write("README.md", "```\ngo run ./cmd/tool -x 1\ngo run ./examples/quickstart    # gone\n```\n")
	write("DESIGN.md", "Run `go run ./cmd/tool/` or `go run ./lib`.\n")
	write("docs/GUIDE.md", "go run ./onlytests\n")

	problems, err := lintRunTargets(root)
	if err != nil {
		t.Fatal(err)
	}
	wantProblems(t, problems, []string{
		"README.md:3: go run ./examples/quickstart",
		"DESIGN.md:1: go run ./lib",
		"GUIDE.md:1: go run ./onlytests",
	})
}

// TestFacadeRefs: a sicost.<Name> the README uses and sicost.go does not
// declare is flagged; declared funcs, types, vars and consts are not,
// nor are methods' names, unexported names or the file name.
func TestFacadeRefs(t *testing.T) {
	root := t.TempDir()
	write := writer(t, root)
	write("sicost.go", `// Package sicost is a facade.
package sicost

type EngineConfig struct{}

const SnapshotFUW = 1

var NewTrace = func() {}

func Open(EngineConfig) {}

func (EngineConfig) Validate() {}
`)
	write("README.md", "The facade is `sicost.go`.\n```go\n"+
		"db := sicost.Open(sicost.EngineConfig{Mode: sicost.SnapshotFUW})\n"+
		"rec := sicost.NewTrace(sicost.TraceOptions{})\n"+
		"sicost.Validate()\n```\n")

	problems, err := lintFacadeRefs(root)
	if err != nil {
		t.Fatal(err)
	}
	wantProblems(t, problems, []string{"README.md:4: uses sicost.TraceOptions", "README.md:5: uses sicost.Validate"})

	if err := os.Remove(filepath.Join(root, "sicost.go")); err != nil {
		t.Fatal(err)
	}
	if problems, err := lintFacadeRefs(root); err != nil || len(problems) != 0 {
		t.Fatalf("without sicost.go: problems = %q, err = %v", problems, err)
	}
}
