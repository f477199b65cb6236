package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Loader parses and type-checks the build the go command describes,
// using only the standard library. One listing, `go list -e -json -deps
// -test <patterns>`, names every package a run needs, dependencies
// first: the matched packages and the module packages they import, each
// matched package's in-package test variant ("p [p.test]") and external
// test ("p_test [p.test]"), and the packages an external test recompiles
// against that variant ("q [p.test]"). The loader checks each of them
// once, in listing order, from the GoFiles the go command chose (so build
// tags are honoured) and with the imports its ImportMap names, so every
// AST, position and finding is the module's own. The standard library is
// read from the compiler's export data (see readExports), so a go
// toolchain must be on PATH for every run. Type errors do not abort
// loading: they are recorded on the Package, and the analyzers tolerate
// the resulting holes in type information.
type Loader struct {
	Fset    *token.FileSet
	RootDir string

	std     types.Importer            // the standard library's export data
	exports map[string]string         // standard-library import path -> export file
	checked map[string]*types.Package // listed ImportPath -> checked package; nil if it has type errors
	parsed  map[string]*ast.File      // filename -> AST, shared by a package's variants
}

// NewLoader returns a loader for the module whose go.mod is in rootDir.
// Patterns are resolved, and the go command run, by Load.
func NewLoader(rootDir string) *Loader {
	l := &Loader{
		Fset:    token.NewFileSet(),
		RootDir: rootDir,
		exports: map[string]string{},
		checked: map[string]*types.Package{},
		parsed:  map[string]*ast.File{},
	}
	l.std = importer.ForCompiler(l.Fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q: not in the standard-library closure of the listed packages", path)
		}
		return os.Open(file)
	})
	return l
}

// listed is the part of one `go list -json` record the loader reads.
type listed struct {
	ImportPath, Name, Dir, ForTest     string
	Standard, DepOnly                  bool
	GoFiles, TestGoFiles, XTestGoFiles []string
	ImportMap                          map[string]string
	Match                              []string
}

// list runs the listing for patterns. -e: a module package with a broken
// import is a type error on that package, not a reason to analyze
// nothing.
func (l *Loader) list(patterns []string) ([]*listed, error) {
	out, err := goList(l.RootDir, append([]string{"-e", "-deps", "-test",
		"-json=ImportPath,Name,Dir,ForTest,Standard,DepOnly,GoFiles,TestGoFiles,XTestGoFiles,ImportMap,Match"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	var listing []*listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		lp := new(listed)
		if err := dec.Decode(lp); err != nil {
			return nil, fmt.Errorf("analysis: go list: %w", err)
		}
		listing = append(listing, lp)
	}
	return listing, nil
}

// readExports asks `go list -export` for the export file of each
// standard-library package in the listing; the gc importer reads them as
// the type checker asks. On a cold GOCACHE this compiles the closure
// once, the same build `go build ./...` and `go test ./...` pay.
func (l *Loader) readExports(listing []*listed) error {
	var std []string
	for _, lp := range listing {
		if lp.Standard {
			std = append(std, lp.ImportPath)
		}
	}
	// With no paths `go list` lists ".", which need not be a package.
	if len(std) == 0 {
		return nil
	}
	out, err := goList(l.RootDir, append([]string{"-export", "-f", "{{.ImportPath}}={{.Export}}"}, std...)...)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, _ := strings.Cut(line, "="); file != "" {
			l.exports[path] = file
		}
	}
	return nil
}

// goList runs `go list args...` in dir and returns its output.
func goList(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %w\n%s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return out, nil
}

// Load lists the packages the patterns match (any go package pattern,
// resolved in the module root; none means "./..."), checks everything the
// listing names, and returns one Package per matched package, in listing
// order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listing, err := l.list(patterns)
	if err != nil {
		return nil, err
	}
	matched := map[string]bool{}
	for _, lp := range listing {
		for _, m := range lp.Match {
			matched[m] = matched[m] || lp.Name != ""
		}
	}
	for _, pat := range patterns {
		if !matched[pat] {
			// A typo'd pattern must not pass vacuously in CI.
			return nil, fmt.Errorf("analysis: pattern %q matches no Go package", pat)
		}
	}
	if err := l.readExports(listing); err != nil {
		return nil, err
	}
	var out []*Package
	byPath := map[string]*Package{}
	for _, lp := range listing {
		// The standard library is export data, a record with no name
		// is an import that resolves nowhere, and "p.test" is the
		// generated test main.
		if lp.Standard || lp.Name == "" || lp.ForTest == "" && strings.HasSuffix(lp.ImportPath, ".test") {
			continue
		}
		files, err := l.parse(lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		path, _, _ := strings.Cut(lp.ImportPath, " ")
		// Info is kept only for the units the rules read: a dependency is
		// an import surface, and a package with in-package tests takes
		// its Info from the test variant, which checks its files again.
		var info *types.Info
		if !lp.DepOnly && (lp.ForTest != "" || len(lp.TestGoFiles) == 0) {
			info = newInfo()
		}
		var errs []error
		conf := &types.Config{
			Importer: importerFunc(func(path string) (*types.Package, error) {
				if to, ok := lp.ImportMap[path]; ok {
					path = to
				}
				return l.Import(path)
			}),
			Error: func(err error) { errs = append(errs, err) },
		}
		tp, _ := conf.Check(path, l.Fset, files, info)
		l.checked[lp.ImportPath] = tp
		if len(errs) > 0 {
			l.checked[lp.ImportPath] = nil
		}
		switch p := byPath[lp.ForTest]; {
		case lp.ForTest == "" && !lp.DepOnly:
			p = &Package{ImportPath: path, Dir: lp.Dir, Fset: l.Fset, Files: files, Types: tp, Info: info, TypeErrs: errs}
			if p.TestFiles, err = l.parse(lp.Dir, lp.TestGoFiles); err != nil {
				return nil, err
			}
			if p.XTestFiles, err = l.parse(lp.Dir, lp.XTestGoFiles); err != nil {
				return nil, err
			}
			byPath[path] = p
			out = append(out, p)
		case path == lp.ForTest:
			// The compiled files again, with the in-package tests: Info
			// covers both, and errors already seen are not repeated.
			p.Info = info
			seen := map[string]bool{}
			for _, err := range p.TypeErrs {
				seen[err.Error()] = true
			}
			for _, err := range errs {
				if !seen[err.Error()] {
					p.TypeErrs = append(p.TypeErrs, err)
				}
			}
		case path == lp.ForTest+"_test":
			p.XInfo = info
			p.TypeErrs = append(p.TypeErrs, errs...)
		}
		// A dependency's errors reach the packages that import it.
	}
	return out, nil
}

// parse returns the ASTs of the named files in dir, parsing each file
// once however many variants list it.
func (l *Loader) parse(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		name = filepath.Join(dir, name)
		f, ok := l.parsed[name]
		if !ok {
			var err error
			if f, err = parser.ParseFile(l.Fset, name, nil, parser.ParseComments); err != nil {
				return nil, fmt.Errorf("analysis: %w", err)
			}
			l.parsed[name] = f
		}
		files = append(files, f)
	}
	return files, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Import implements types.Importer for a path as the listing names it:
// a package checked earlier in the listing, or the standard library. A
// checked package with type errors fails the import, so no package is
// analyzed against a surface that does not type-check without saying so.
func (l *Loader) Import(path string) (*types.Package, error) {
	if tp, ok := l.checked[path]; ok {
		if tp == nil {
			return nil, fmt.Errorf("analysis: %s does not type-check", path)
		}
		return tp, nil
	}
	return l.std.Import(path)
}
