package analysis

import (
	"go/ast"
	"go/parser"
	"go/types"
	"strings"
	"sync"
	"testing"
)

// All fixtures share one FileSet and the standard-library importer of a
// loader over this module, which has listed the module's packages and
// checked none, so a fixture may import any std package the module
// itself reaches. The importer keeps its package map unlocked, so
// analyzer tests must not call t.Parallel().
var (
	fixtureLoader = NewLoader("../..")
	fixtureFset   = fixtureLoader.Fset
	fixtureStd    = sync.OnceValue(func() error {
		listing, err := fixtureLoader.list([]string{"./..."})
		if err != nil {
			return err
		}
		return fixtureLoader.readExports(listing)
	})
)

func fixtureImporter(t *testing.T) types.Importer {
	t.Helper()
	if err := fixtureStd(); err != nil {
		t.Fatal(err)
	}
	return fixtureLoader
}

// loadFixture type-checks an in-memory package for analyzer tests. Keys
// of files are filenames ("a.go", "a_test.go"); the import path controls
// rule scoping ("metro/internal/core" puts the fixture in cycle-state
// scope). Fixtures may import only the standard library.
func loadFixture(t *testing.T, importPath string, files map[string]string) *Package {
	t.Helper()
	fset := fixtureFset
	p := &Package{ImportPath: importPath, Fset: fset}
	for name, src := range files {
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		switch {
		case strings.HasSuffix(f.Name.Name, "_test"):
			p.XTestFiles = append(p.XTestFiles, f)
		case strings.HasSuffix(name, "_test.go"):
			p.TestFiles = append(p.TestFiles, f)
		default:
			p.Files = append(p.Files, f)
		}
	}
	imp := fixtureImporter(t)
	collect := func(err error) { p.TypeErrs = append(p.TypeErrs, err) }
	p.Info = newInfo()
	unit := append(append([]*ast.File{}, p.Files...), p.TestFiles...)
	p.Types, _ = (&types.Config{Importer: imp, Error: collect}).Check(importPath, fset, unit, p.Info)
	if len(p.XTestFiles) > 0 {
		// Fixture xtest files must not import the fixture package itself
		// (the stdlib importer cannot resolve it); they exist to model
		// "a test calls X" shapes, which resolve syntactically.
		p.XInfo = newInfo()
		(&types.Config{Importer: imp, Error: func(error) {}}).Check(importPath+"_test", fset, p.XTestFiles, p.XInfo)
	}
	for _, err := range p.TypeErrs {
		t.Logf("fixture type error (tolerated): %v", err)
	}
	return p
}

// fixturePkg is one package of a multi-package fixture program.
type fixturePkg struct {
	path  string
	files map[string]string
}

// loadFixtureProgram type-checks several in-memory packages, in
// dependency order (imported packages first), and indexes them as a
// Program for the whole-program analyzers. Fixture packages may import
// the standard library and any fixture package listed before them.
func loadFixtureProgram(t *testing.T, pkgs ...fixturePkg) *Program {
	t.Helper()
	local := map[string]*types.Package{}
	imp := &fixtureProgImporter{local: local, std: fixtureImporter(t)}
	var out []*Package
	for _, fp := range pkgs {
		p := &Package{ImportPath: fp.path, Fset: fixtureFset}
		for name, src := range fp.files {
			f, err := parser.ParseFile(fixtureFset, fp.path+"/"+name, src, parser.ParseComments)
			if err != nil {
				t.Fatalf("parse %s/%s: %v", fp.path, name, err)
			}
			if strings.HasSuffix(name, "_test.go") {
				p.TestFiles = append(p.TestFiles, f)
			} else {
				p.Files = append(p.Files, f)
			}
		}
		collect := func(err error) { p.TypeErrs = append(p.TypeErrs, err) }
		p.Info = newInfo()
		unit := append(append([]*ast.File{}, p.Files...), p.TestFiles...)
		p.Types, _ = (&types.Config{Importer: imp, Error: collect}).Check(fp.path, fixtureFset, unit, p.Info)
		local[fp.path] = p.Types
		for _, err := range p.TypeErrs {
			t.Logf("fixture type error (tolerated): %v", err)
		}
		out = append(out, p)
	}
	return NewProgram(out)
}

// fixtureProgImporter resolves fixture-local packages first and defers
// the rest to the shared standard-library importer.
type fixtureProgImporter struct {
	local map[string]*types.Package
	std   types.Importer
}

func (i *fixtureProgImporter) Import(path string) (*types.Package, error) {
	if p := i.local[path]; p != nil {
		return p, nil
	}
	return i.std.Import(path)
}

// runRule loads the fixture and runs one analyzer over it.
func runRule(t *testing.T, a *Analyzer, importPath string, files map[string]string) []Finding {
	t.Helper()
	return a.Run(NewProgram([]*Package{loadFixture(t, importPath, files)}))
}

// wantFindings asserts the findings' (filename, line) pairs exactly.
func wantFindings(t *testing.T, got []Finding, rule string, want ...[2]any) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d finding(s), want %d: %v", len(got), len(want), got)
	}
	SortFindings(got)
	for i, w := range want {
		file, line := w[0].(string), w[1].(int)
		f := got[i]
		if f.Rule != rule || f.Pos.Filename != file || f.Pos.Line != line {
			t.Errorf("finding %d = %s:%d (%s), want %s:%d (%s)",
				i, f.Pos.Filename, f.Pos.Line, f.Rule, file, line, rule)
		}
	}
}
