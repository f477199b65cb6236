package analysis

import (
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestLoaderOnRealTree loads a real package from this module (internal/prng,
// chosen because it has no module-local imports of its own plus a test file)
// and checks the loader wires up what the analyzers need.
func TestLoaderOnRealTree(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := NewLoader(root).Load("./internal/prng")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Types == nil || p.Types.Path() != "metro/internal/prng" {
		t.Fatalf("base unit not type-checked: %v", p.Types)
	}
	if len(p.Files) == 0 {
		t.Fatal("no compiled files parsed")
	}
	if len(p.TypeErrs) != 0 {
		t.Fatalf("unexpected type errors: %v", p.TypeErrs)
	}
	// prng is the sanctioned randomness source; every analyzer must be
	// clean on it with no annotations needed.
	prog := NewProgram(pkgs)
	for _, a := range Analyzers() {
		if got := a.Run(prog); len(got) != 0 {
			t.Errorf("%s on internal/prng: %v", a.Name, got)
		}
	}
}

// TestLoaderNoStdImports: a module that reaches nothing in the standard
// library must load without asking `go list -export` for an empty list
// (which would list "." — not a package at the scaffold's root).
func TestLoaderNoStdImports(t *testing.T) {
	pkgs, err := NewLoader(scaffoldModule(t)).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	for _, p := range pkgs {
		if len(p.TypeErrs) != 0 {
			t.Errorf("%s: unexpected type errors: %v", p.ImportPath, p.TypeErrs)
		}
	}
}

// TestImportWithoutExportData: an import outside the module's
// standard-library closure fails, and the error names the path.
func TestImportWithoutExportData(t *testing.T) {
	_, err := NewLoader(scaffoldModule(t)).Import("net/http")
	if err == nil || !strings.Contains(err.Error(), `"net/http"`) {
		t.Fatalf("Import(net/http) error = %v, want one naming the path", err)
	}
}

// TestLoadCollectsTypeErrors: a module package that does not type-check
// (a bad assignment, an import that resolves nowhere) is still loaded and
// analyzed; its diagnostics are collected, and the rest of the tree is
// unaffected.
func TestLoadCollectsTypeErrors(t *testing.T) {
	root := scaffoldModule(t)
	writeFiles(t, root, map[string]string{
		"internal/bad/bad.go": "package bad\n\nimport \"no/such/pkg\"\n\nvar X int = \"s\"\n\nvar _ = pkg.Y\n",
	})
	res, err := RunTree(root)
	if err != nil {
		t.Fatalf("type errors must not be fatal: %v", err)
	}
	if res.Packages != 3 {
		t.Fatalf("matched %d packages, want 3", res.Packages)
	}
	joined := strings.Join(res.TypeErrs, "\n")
	for _, want := range []string{"metro/internal/bad: ", `"no/such/pkg"`, "cannot use"} {
		if !strings.Contains(joined, want) {
			t.Errorf("type errors lack %q:\n%s", want, joined)
		}
	}
	if len(res.Findings) == 0 {
		t.Error("the clean packages' findings went missing")
	}
}

// TestLoaderFollowsTheBuild: the loader checks what `go test` builds.
// Of a build-tagged pair of test files only the one the default build
// selects is checked; an external test sees its package's export_test.go
// hooks; and an external test may import a package that imports back
// into the package under test, which the go command recompiles against
// the test variant (a loader that checked imports recursively, from
// directories, found an import cycle there).
func TestLoaderFollowsTheBuild(t *testing.T) {
	root := scaffoldModule(t)
	writeFiles(t, root, map[string]string{
		"internal/util/race_test.go":   "//go:build race\n\npackage util\n\nconst raceEnabled = true\n",
		"internal/util/norace_test.go": "//go:build !race\n\npackage util\n\nconst raceEnabled = false\n",
		"internal/util/export_test.go": "package util\n\nconst RaceEnabled = raceEnabled\n",
		"internal/user/user.go":        "package user\n\nimport \"metro/internal/util\"\n\nvar Three = util.Add(1, 2)\n",
		"internal/util/util_test.go": `package util_test

import (
	"metro/internal/user"
	"metro/internal/util"
)

var _ = util.RaceEnabled || user.Three != 3
`,
	})
	pkgs, err := NewLoader(root).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 3 {
		t.Fatalf("loaded %d packages, want 3", len(pkgs))
	}
	for _, p := range pkgs {
		for _, err := range p.TypeErrs {
			t.Errorf("%s: %v", p.ImportPath, err)
		}
		if p.ImportPath != "metro/internal/util" {
			continue
		}
		var tests []string
		for _, f := range p.TestFiles {
			tests = append(tests, filepath.Base(p.Fset.Position(f.Package).Filename))
		}
		sort.Strings(tests)
		if got := strings.Join(tests, " "); got != "export_test.go norace_test.go" {
			t.Errorf("in-package test files = %s, want export_test.go norace_test.go", got)
		}
		if len(p.XTestFiles) != 1 || p.XInfo == nil {
			t.Errorf("external test not checked: %d files, XInfo %v", len(p.XTestFiles), p.XInfo)
		}
	}
}

// TestPatternsDoNotChangeWhatLoads: the whole tree and a pattern list
// naming two of its packages both type-check without a diagnostic (which
// packages a recursive loader checked without their imports depended on
// the patterns), and a pattern that names no package is an error.
func TestPatternsDoNotChangeWhatLoads(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole tree; skipped in -short mode")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, patterns := range [][]string{nil, {"./internal/kernel", "./internal/netsim"}} {
		res, err := RunTree(root, patterns...)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.TypeErrs) != 0 {
			t.Errorf("RunTree(%q): %d type errors:\n%s", patterns, len(res.TypeErrs), strings.Join(res.TypeErrs, "\n"))
		}
	}
	for _, typo := range []string{"./internal/kernal", "./internal/kernal/..."} {
		if _, err := RunTree(root, typo); err == nil || !strings.Contains(err.Error(), "matches no Go package") {
			t.Errorf("RunTree(%q) error = %v, want one saying it matches no Go package", typo, err)
		}
	}
}
