package analysis

import (
	"fmt"
	"path/filepath"
	"strings"
)

// TreeResult is the outcome of one whole-tree run.
type TreeResult struct {
	// Findings is the merged, sorted finding list with module-relative
	// filenames.
	Findings []Finding
	// Packages is the number of matched package directories.
	Packages int
	// TypeErrs holds type-checker diagnostics ("path: err"), empty on a
	// tree that builds.
	TypeErrs []string
	// Sites counts the value-range rules' check sites, by rule, when
	// either rule ran.
	Sites map[string]SiteCount
}

// RunTree is the one entry point the CLI, the tests and the benchmark
// share: load the packages the loader patterns match ("./...", "./dir",
// "./dir/..."; none means the whole module), run every rule once over
// the combined Program, and return stable, module-relative findings.
func RunTree(root string, patterns ...string) (*TreeResult, error) {
	loader, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return nil, err
	}
	res := &TreeResult{Packages: len(pkgs)}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrs {
			res.TypeErrs = append(res.TypeErrs, fmt.Sprintf("%s: %v", p.ImportPath, terr))
		}
	}

	prog := NewProgram(pkgs)
	all := runRules(Analyzers(), prog)
	if prog.vr != nil {
		res.Sites = prog.vr.sites
	}
	// Module-relative filenames, so a report does not depend on where
	// the tree is checked out.
	for i := range all {
		if rel, err := filepath.Rel(root, all[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			all[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}
	SortFindings(all)
	res.Findings = all
	return res, nil
}

// runRules runs each rule once over prog.
func runRules(rules []*Analyzer, prog *Program) []Finding {
	var all []Finding
	for _, a := range rules {
		all = append(all, a.Run(prog)...)
	}
	return all
}
