package analysis

import (
	"fmt"
	"path/filepath"
	"strings"
)

// TreeOptions configures a whole-tree analysis run.
type TreeOptions struct {
	// Patterns are loader patterns ("./...", "./dir", "./dir/...");
	// empty means the whole module.
	Patterns []string
	// Rules overrides the rule set (nil = Analyzers()).
	Rules []*Analyzer
}

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
// share: load the matched packages, run per-package rules per package
// and whole-program rules once over the combined Program, and return
// stable, module-relative findings.
func RunTree(root string, opts TreeOptions) (*TreeResult, error) {
	rules := opts.Rules
	if rules == nil {
		rules = Analyzers()
	}
	loader, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.Load(opts.Patterns...)
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
	all := runRules(rules, prog)
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

// runRules runs each rule over prog: a whole-program rule once, a
// per-package rule on every package.
func runRules(rules []*Analyzer, prog *Program) []Finding {
	var all []Finding
	for _, a := range rules {
		if a.RunProgram != nil {
			all = append(all, a.RunProgram(prog)...)
			continue
		}
		for _, p := range prog.Packages {
			all = append(all, a.Run(p)...)
		}
	}
	return all
}
