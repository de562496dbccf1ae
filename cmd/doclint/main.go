// Command doclint enforces the repository's documentation floor. Its
// checks:
//
// Package docs: every package must carry a package doc comment, and
// the comment must open with the godoc convention — "Package <name>
// ..." for libraries, "Command <name> ..." for main packages.
//
// Docs cross-references: every file under docs/ is checked against the
// code it describes, so the operational guides cannot silently rot:
//
//   - every `internal/...` path mentioned must exist in the repository;
//   - every `-flag` token in inline code spans, and on `./cmd/...`
//     invocation lines inside fenced blocks, must be a flag some
//     command actually registers (flag.String/Bool/... in cmd/);
//   - every `sicost_*` expvar name mentioned must be published by a
//     command (a "sicost_..." string literal in cmd/ sources);
//   - every fault-point name mentioned in an inline code span (a
//     slash-separated lowercase path like `wal/commit` whose first
//     segment is a namespace some Fault* constant declares) must match
//     a declared fault point (`FaultX = "ns/..."` in non-test sources).
//
// Experiment ids: every `-exp <id>` on a line that mentions sibench, in
// README.md, DESIGN.md, EXPERIMENTS.md or docs/, must be an experiment
// cmd/sibench runs (experiments.All, or "all"), so a renamed figure
// cannot live on in the docs.
//
// Run targets: every `go run ./<dir>` in the same documents must name a
// directory that holds a main package, so a deleted program cannot
// either.
//
// The facade: every `sicost.<Name>` in README.md must be an exported
// declaration of the root package's sicost.go, so the README's
// quick-start and the public surface cannot drift apart.
//
// Flags without a user: the inverse of the flag rule above. A flag a
// command registers must be mentioned somewhere a user would meet it —
// a code span or fenced block of README.md, EXPERIMENTS.md or docs/, a
// Makefile line, or a command's own tests — or it is flagged, so a knob
// nobody sets cannot come back unnoticed. Mentions are matched by flag
// name, not per command.
//
// `make docs` runs it over the whole module alongside go vet.
//
// Usage:
//
//	doclint [root ...]   # default: .
//
// Exit status is 1 if any package or docs reference is flagged.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"sicost/internal/experiments"
)

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"."}
	}
	checks := []func(root string) ([]string, error){
		lint, lintDocs, lintUnusedFlags, lintExperimentRefs, lintRunTargets, lintFacadeRefs,
	}
	var bad int
	for _, root := range roots {
		for _, check := range checks {
			problems, err := check(root)
			if err != nil {
				fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
				os.Exit(1)
			}
			for _, p := range problems {
				fmt.Println(p)
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d problem(s) flagged\n", bad)
		os.Exit(1)
	}
}

// lint checks every directory under root holding non-test Go files.
func lint(root string) ([]string, error) {
	dirs, err := goFiles(root)
	if err != nil {
		return nil, err
	}
	var sorted []string
	for dir := range dirs {
		sorted = append(sorted, dir)
	}
	sort.Strings(sorted)
	var problems []string
	for _, dir := range sorted {
		if p := lintDir(dir, dirs[dir]); p != "" {
			problems = append(problems, p)
		}
	}
	return problems, nil
}

// goFiles maps every directory under root to its non-test Go files,
// skipping testdata and hidden or underscore-prefixed directories below
// root (root itself may well be ".").
func goFiles(root string) (map[string][]string, error) {
	dirs := map[string][]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			dirs[dir] = append(dirs[dir], path)
		}
		return nil
	})
	return dirs, err
}

// lintDir checks one package directory: at least one file must carry a
// package doc comment with the conventional opening.
func lintDir(dir string, files []string) string {
	fset := token.NewFileSet()
	var pkgName string
	var doc string
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return fmt.Sprintf("%s: %v", path, err)
		}
		pkgName = f.Name.Name
		if f.Doc != nil && doc == "" {
			doc = f.Doc.Text()
		}
	}
	if doc == "" {
		return fmt.Sprintf("%s: package %s has no package doc comment", dir, pkgName)
	}
	want := "Package " + pkgName + " "
	if pkgName == "main" {
		want = "Command "
	}
	if !strings.HasPrefix(doc, want) {
		return fmt.Sprintf("%s: package %s doc must start with %q (got %q)",
			dir, pkgName, strings.TrimSpace(want), firstLine(doc))
	}
	return ""
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// --- docs/*.md cross-reference checks ---

var (
	internalPathRe = regexp.MustCompile(`internal/[A-Za-z0-9_./-]*[A-Za-z0-9_]`)
	inlineSpanRe   = regexp.MustCompile("`([^`\n]+)`")
	flagTokenRe    = regexp.MustCompile(`(?:^|[\s|\[])(-[a-z][a-z0-9-]*)`)
	flagDeclRe     = regexp.MustCompile(`flag\.[A-Za-z0-9]+\(\s*"([^"]+)"`)
	metricDeclRe   = regexp.MustCompile(`"(sicost_[a-z_]+)"`)
	metricRefRe    = regexp.MustCompile(`sicost_[a-z_]+`)
	faultDeclRe    = regexp.MustCompile(`Fault[A-Za-z0-9]*\s*=\s*"([a-z0-9/-]+)"`)
	faultRefRe     = regexp.MustCompile(`^[a-z][a-z0-9-]*(?:/[a-z0-9-]+)+$`)
	// testFlagRe matches a flag as a command's test passes it: the start
	// of a string literal ("-mode", "-mode=2pl").
	testFlagRe = regexp.MustCompile(`"-[a-z][a-z0-9-]*`)
	// expRe matches the ids of a sibench -exp argument ("-exp fig4,fig7");
	// a placeholder ("-exp <id>") does not match.
	expRe = regexp.MustCompile("(?:^|[\\s`(])-exp[ =]([A-Za-z0-9_,-]+)")
	// runTargetRe matches the package directory of a `go run ./dir`.
	runTargetRe = regexp.MustCompile(`go run (\./[A-Za-z0-9_./-]*)`)
	// facadeRefRe matches an exported name of the root package.
	facadeRefRe = regexp.MustCompile(`\bsicost\.([A-Z][A-Za-z0-9_]*)`)
)

// lintExperimentRefs flags every experiment id a sibench line of
// README.md, DESIGN.md, EXPERIMENTS.md or docs/*.md names that
// experiments.All does not define.
func lintExperimentRefs(root string) ([]string, error) {
	known := map[string]bool{"all": true}
	for _, e := range experiments.All() {
		known[e.ID] = true
	}
	var problems []string
	err := eachDocLine(root, func(path string, n int, line string) {
		if !strings.Contains(line, "sibench") {
			return
		}
		for _, m := range expRe.FindAllStringSubmatch(line, -1) {
			for _, id := range strings.Split(m[1], ",") {
				if !known[id] {
					problems = append(problems, fmt.Sprintf("%s:%d: runs sibench -exp %s, which is no experiment", path, n, id))
				}
			}
		}
	})
	return problems, err
}

// lintRunTargets flags every `go run ./<dir>` in README.md, DESIGN.md,
// EXPERIMENTS.md or docs/*.md whose directory holds no main package, so
// a deleted or renamed program cannot live on in the docs.
func lintRunTargets(root string) ([]string, error) {
	dirs, err := goFiles(root)
	if err != nil {
		return nil, err
	}
	var problems []string
	err = eachDocLine(root, func(path string, n int, line string) {
		for _, m := range runTargetRe.FindAllStringSubmatch(line, -1) {
			files := dirs[filepath.Join(root, m[1])]
			if len(files) > 0 {
				f, err := parser.ParseFile(token.NewFileSet(), files[0], nil, parser.PackageClauseOnly)
				if err == nil && f.Name.Name == "main" {
					continue
				}
			}
			problems = append(problems, fmt.Sprintf("%s:%d: go run %s, which is no main package", path, n, m[1]))
		}
	})
	return problems, err
}

// lintFacadeRefs flags every sicost.<Name> in README.md that sicost.go
// does not declare, so the README and the facade cannot drift apart.
// Absent a sicost.go it is a no-op.
func lintFacadeRefs(root string) ([]string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(root, "sicost.go"), nil, parser.SkipObjectResolution)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	declared := map[string]bool{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				declared[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok {
					declared[ts.Name.Name] = true
				} else if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, id := range vs.Names {
						declared[id.Name] = true
					}
				}
			}
		}
	}
	readme := filepath.Join(root, "README.md")
	var problems []string
	err = eachDocLine(root, func(path string, n int, line string) {
		if path != readme {
			return
		}
		for _, m := range facadeRefRe.FindAllStringSubmatch(line, -1) {
			if !declared[m[1]] {
				problems = append(problems, fmt.Sprintf("%s:%d: uses sicost.%s, which sicost.go does not declare", path, n, m[1]))
			}
		}
	})
	return problems, err
}

// eachDocLine calls fn with every line, numbered from 1, of README.md,
// DESIGN.md, EXPERIMENTS.md and docs/*.md; a missing document has no
// lines.
func eachDocLine(root string, fn func(path string, n int, line string)) error {
	paths, _ := filepath.Glob(filepath.Join(root, "docs", "*.md")) // a constant pattern: Glob cannot fail
	for _, name := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		paths = append(paths, filepath.Join(root, name))
	}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(b), "\n") {
			fn(path, i+1, line)
		}
	}
	return nil
}

// lintDocs verifies that every file under <root>/docs references only
// code that exists: internal/ paths, registered cmd flags, published
// sicost_* expvar names. Absent a docs directory it is a no-op.
func lintDocs(root string) ([]string, error) {
	paths, _ := filepath.Glob(filepath.Join(root, "docs", "*.md")) // a constant pattern: Glob cannot fail
	flags, metrics, _, err := collectCmdDecls(filepath.Join(root, "cmd"))
	if err != nil {
		return nil, err
	}
	faults, err := collectFaultDecls(root)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		problems = append(problems, lintDoc(root, path, string(b), flags, metrics, faults)...)
	}
	return problems, nil
}

// collectCmdDecls scans cmd/ sources for flag registrations
// (flag.String("name", ...) and friends) and published sicost_*
// expvar names, the ground truth the docs are checked against. byCmd
// holds the flags each command's own (non-test) sources register, keyed
// by the command's directory.
func collectCmdDecls(cmdDir string) (flags, metrics map[string]bool, byCmd map[string][]string, err error) {
	flags, metrics, byCmd = map[string]bool{}, map[string]bool{}, map[string][]string{}
	if _, serr := os.Stat(cmdDir); os.IsNotExist(serr) {
		return flags, metrics, byCmd, nil
	}
	err = filepath.WalkDir(cmdDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range flagDeclRe.FindAllStringSubmatch(string(b), -1) {
			flags[m[1]] = true
			if !strings.HasSuffix(path, "_test.go") {
				byCmd[filepath.Dir(path)] = append(byCmd[filepath.Dir(path)], m[1])
			}
		}
		for _, m := range metricDeclRe.FindAllStringSubmatch(string(b), -1) {
			metrics[m[1]] = true
		}
		return nil
	})
	return flags, metrics, byCmd, err
}

// collectFaultDecls scans the module's non-test Go sources for
// fault-point constants (FaultX = "ns/point") and returns the declared
// names plus the set of first-segment namespaces they claim; doc spans
// shaped like fault points inside a claimed namespace must resolve
// (spans outside any claimed namespace are left alone — they are paths
// or something else entirely).
func collectFaultDecls(root string) (map[string]bool, error) {
	dirs, err := goFiles(root)
	if err != nil {
		return nil, err
	}
	points := map[string]bool{}
	for _, files := range dirs {
		for _, path := range files {
			b, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			for _, m := range faultDeclRe.FindAllStringSubmatch(string(b), -1) {
				if strings.Contains(m[1], "/") {
					points[m[1]] = true
				}
			}
		}
	}
	return points, nil
}

// faultNamespaces derives the namespace set (first path segment) from
// the declared fault points.
func faultNamespaces(points map[string]bool) map[string]bool {
	ns := map[string]bool{}
	for p := range points {
		ns[p[:strings.IndexByte(p, '/')]] = true
	}
	return ns
}

// lintDoc checks one markdown file. Flag tokens are collected from
// inline code spans and from ./cmd/ invocation lines inside fenced
// blocks (with backslash continuations joined); prose is never
// scanned, so hyphenated English ("point-in-time") cannot false-fire.
func lintDoc(root, path, text string, flags, metrics, faults map[string]bool) []string {
	var problems []string
	flag := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf("%s: ", path)+fmt.Sprintf(format, args...))
	}

	for _, tok := range dedup(internalPathRe.FindAllString(text, -1)) {
		if strings.Contains(tok, "...") {
			continue // "internal/..." wildcard, not a path
		}
		if _, err := os.Stat(filepath.Join(root, tok)); err != nil {
			flag("references %s, which does not exist", tok)
		}
	}

	prose, fenced := splitFences(text)
	for _, tok := range dedup(docFlagTokens(prose, fenced, "./cmd/")) {
		if !flags[strings.TrimPrefix(tok, "-")] {
			flag("mentions flag %s, which no command registers", tok)
		}
	}

	for _, tok := range dedup(metricRefRe.FindAllString(text, -1)) {
		if !metrics[tok] {
			flag("mentions expvar %s, which no command publishes", tok)
		}
	}

	// Fault-point spans: an inline code span that looks like a fault
	// point and sits in a namespace some Fault* constant claims must be
	// a declared point, so the docs cannot drift from the injectable
	// surface.
	ns := faultNamespaces(faults)
	var faultToks []string
	for _, span := range inlineSpanRe.FindAllStringSubmatch(prose, -1) {
		tok := span[1]
		if faultRefRe.MatchString(tok) && ns[tok[:strings.IndexByte(tok, '/')]] {
			faultToks = append(faultToks, tok)
		}
	}
	for _, tok := range dedup(faultToks) {
		if !faults[tok] {
			flag("mentions fault point %s, which no Fault constant declares", tok)
		}
	}
	return problems
}

// docFlagTokens returns the -flag tokens of a markdown document's code:
// its inline spans, and the fenced-block lines that contain marker (""
// takes every fenced line).
func docFlagTokens(prose string, fenced []string, marker string) []string {
	var toks []string
	for _, span := range inlineSpanRe.FindAllStringSubmatch(prose, -1) {
		for _, m := range flagTokenRe.FindAllStringSubmatch(span[1], -1) {
			toks = append(toks, m[1])
		}
	}
	for _, line := range fenced {
		if !strings.Contains(line, marker) {
			continue
		}
		for _, m := range flagTokenRe.FindAllStringSubmatch(line, -1) {
			toks = append(toks, m[1])
		}
	}
	return toks
}

// lintUnusedFlags flags every flag a command registers that nothing a
// user reads or runs mentions: no code span or fenced block of
// README.md, EXPERIMENTS.md or docs/*.md, no Makefile line, no test of a
// command.
func lintUnusedFlags(root string) ([]string, error) {
	cmdDir := filepath.Join(root, "cmd")
	_, _, byCmd, err := collectCmdDecls(cmdDir)
	if err != nil || len(byCmd) == 0 {
		return nil, err
	}
	mentioned := map[string]bool{}
	note := func(toks []string) {
		for _, t := range toks {
			mentioned[strings.TrimLeft(t, `"-`)] = true
		}
	}
	// A missing document is no mention, not an error. (The Glob patterns
	// are constants: Glob cannot fail.)
	read := func(path string) (string, error) {
		b, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			return "", nil
		}
		return string(b), err
	}
	docs, _ := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	for _, path := range append(docs, filepath.Join(root, "README.md"), filepath.Join(root, "EXPERIMENTS.md")) {
		text, err := read(path)
		if err != nil {
			return nil, err
		}
		prose, fenced := splitFences(text)
		note(docFlagTokens(prose, fenced, ""))
	}
	makefile, err := read(filepath.Join(root, "Makefile"))
	if err != nil {
		return nil, err
	}
	for _, m := range flagTokenRe.FindAllStringSubmatch(makefile, -1) {
		note(m[1:])
	}
	tests, _ := filepath.Glob(filepath.Join(cmdDir, "*", "*_test.go"))
	for _, path := range tests {
		text, err := read(path)
		if err != nil {
			return nil, err
		}
		note(testFlagRe.FindAllString(text, -1))
	}
	var cmds []string
	for dir := range byCmd {
		cmds = append(cmds, dir)
	}
	sort.Strings(cmds)
	var problems []string
	for _, dir := range cmds {
		for _, name := range byCmd[dir] {
			if !mentioned[name] {
				problems = append(problems, fmt.Sprintf(
					"%s: registers -%s, which no README/EXPERIMENTS/docs code span, Makefile line or command test mentions", dir, name))
			}
		}
	}
	return problems, nil
}

// splitFences separates a markdown document into its prose (fenced
// blocks removed) and the fenced-block logical lines, joining
// backslash-continued command lines so a wrapped invocation's flags
// are checked with it.
func splitFences(text string) (prose string, fenced []string) {
	var keep []string
	inFence := false
	cont := ""
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if !inFence {
			keep = append(keep, line)
			continue
		}
		if strings.HasSuffix(line, "\\") {
			cont += strings.TrimSuffix(line, "\\") + " "
			continue
		}
		fenced = append(fenced, cont+line)
		cont = ""
	}
	if cont != "" {
		fenced = append(fenced, cont)
	}
	return strings.Join(keep, "\n"), fenced
}

func dedup(toks []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, t := range toks {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}
