package analysis

import (
	"os"
	"path/filepath"
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
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if l.ModulePath != "metro" {
		t.Fatalf("module path = %q, want metro", l.ModulePath)
	}
	pkgs, err := l.Load("./internal/prng")
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
	l, err := NewLoader(scaffoldModule(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load()
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
	l, err := NewLoader(scaffoldModule(t))
	if err != nil {
		t.Fatal(err)
	}
	_, err = l.Import("net/http")
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
	bad := filepath.Join(root, "internal", "bad")
	if err := os.MkdirAll(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package bad\n\nimport \"no/such/pkg\"\n\nvar X int = \"s\"\n\nvar _ = pkg.Y\n"
	if err := os.WriteFile(filepath.Join(bad, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
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
