package analysis

import (
	"bytes"
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
	"sort"
	"strings"
)

// Loader parses and type-checks the repository's packages using only the
// standard library: module-local imports ("metro/...") are resolved
// recursively from source, so every AST and position the analyzers see is
// the module's own, and standard-library imports are read from the
// compiler's export data (see stdImporter). A go toolchain must therefore
// be on PATH for every run. Type errors do not abort loading — they are
// recorded on the Package and the analyzers tolerate the resulting holes
// in type information.
type Loader struct {
	Fset       *token.FileSet
	RootDir    string
	ModulePath string

	std     types.Importer
	pkgs    map[string]*Package // keyed by import path
	loading map[string]bool     // import-cycle guard
}

// NewLoader builds a loader rooted at the module directory containing
// go.mod.
func NewLoader(rootDir string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(rootDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, err := stdImporter(fset, rootDir)
	if err != nil {
		return nil, err
	}
	return &Loader{
		Fset:       fset,
		RootDir:    rootDir,
		ModulePath: modPath,
		std:        std,
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// stdImporter returns an importer for the standard-library closure of
// the module in dir, test imports included. It asks the go command twice:
// `go list -deps -test ./...` names the closure, `go list -export` names
// each package's export file in GOCACHE, and the gc importer reads those
// files on demand. On a cold GOCACHE the second call compiles the closure
// once, the same build `go build ./...` and `go test ./...` pay.
func stdImporter(fset *token.FileSet, dir string) (types.Importer, error) {
	// -e: a module package with a broken import is a type error on that
	// package, not a reason to analyze nothing.
	std, err := goList(dir, "-e", "-deps", "-test", "-f", "{{if .Standard}}{{.ImportPath}}{{end}}", "./...")
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	// With no paths `go list` lists ".", which need not be a package.
	if len(std) > 0 {
		lines, err := goList(dir, append([]string{"-export", "-f", "{{.ImportPath}}={{.Export}}"}, std...)...)
		if err != nil {
			return nil, err
		}
		for _, line := range lines {
			if path, file, _ := strings.Cut(line, "="); file != "" {
				exports[path] = file
			}
		}
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q: not in the standard-library closure of %s", path, dir)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup), nil
}

// goList runs `go list args...` in dir and returns its non-empty output
// lines.
func goList(dir string, args ...string) ([]string, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %w\n%s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return strings.FieldsFunc(string(out), func(r rune) bool { return r == '\n' }), nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module declaration in %s", gomod)
}

// Load resolves the given patterns to packages. The only pattern forms
// supported are "./..." (every package under the module root), "./dir"
// and "./dir/..." (a directory, optionally recursive).
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.Dirs(patterns...)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		p, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// Dirs resolves patterns to the sorted package directories they match,
// without parsing or type-checking anything.
func (l *Loader) Dirs(patterns ...string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirSet := map[string]bool{}
	for _, orig := range patterns {
		pat := orig
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		dir := filepath.Join(l.RootDir, filepath.FromSlash(pat))
		if !recursive {
			if !hasGoFiles(dir) {
				// A typo'd pattern must not pass vacuously in CI.
				return nil, fmt.Errorf("analysis: pattern %q matches no Go package", orig)
			}
			dirSet[dir] = true
			continue
		}
		found := 0
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				dirSet[path] = true
				found++
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		if found == 0 {
			return nil, fmt.Errorf("analysis: pattern %q matches no Go package", orig)
		}
	}
	dirs := make([]string, 0, len(dirSet))
	for d := range dirSet {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// importPathFor maps a directory under the module root to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.RootDir, dir)
	if err != nil {
		return "", fmt.Errorf("analysis: %w", err)
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		return l.ModulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module root %s", dir, l.RootDir)
	}
	return l.ModulePath + "/" + rel, nil
}

// dirFor inverts importPathFor for module-local import paths.
func (l *Loader) dirFor(importPath string) string {
	if importPath == l.ModulePath {
		return l.RootDir
	}
	rel := strings.TrimPrefix(importPath, l.ModulePath+"/")
	return filepath.Join(l.RootDir, filepath.FromSlash(rel))
}

// LoadDir loads, parses and type-checks the package in dir (caching by
// import path).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	importPath, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var files, tfiles, xfiles []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		switch {
		case strings.HasSuffix(f.Name.Name, "_test"):
			xfiles = append(xfiles, f)
		case strings.HasSuffix(name, "_test.go"):
			tfiles = append(tfiles, f)
		default:
			files = append(files, f)
		}
	}

	p := &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.Fset,
		Files:      files,
		TestFiles:  tfiles,
		XTestFiles: xfiles,
	}
	collect := func(err error) { p.TypeErrs = append(p.TypeErrs, err) }
	// The base unit (compiled files only) is what imports see; it must be
	// checked and cached first so that test files — which may transitively
	// re-import this package — do not manufacture spurious cycles.
	p.Info = newInfo()
	p.Types, _ = (&types.Config{Importer: l, Error: collect}).Check(importPath, l.Fset, files, p.Info)
	l.pkgs[importPath] = p
	if len(tfiles) > 0 {
		// Re-check compiled + in-package test files as one unit so Info
		// covers both; the base Types above stays the import surface.
		info := newInfo()
		(&types.Config{Importer: l, Error: func(error) {}}).Check(
			importPath, l.Fset, append(append([]*ast.File{}, files...), tfiles...), info)
		p.Info = info
	}
	if len(xfiles) > 0 {
		p.XInfo = newInfo()
		(&types.Config{Importer: l, Error: collect}).Check(importPath+"_test", l.Fset, xfiles, p.XInfo)
	}
	return p, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// Import implements types.Importer: module-local paths load from source,
// everything else is read from export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		p, err := l.LoadDir(l.dirFor(path))
		if err != nil {
			return nil, err
		}
		if p.Types == nil {
			return nil, fmt.Errorf("analysis: no type information for %s", path)
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}
