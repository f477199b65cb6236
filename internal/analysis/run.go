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
	// CacheDir enables the analysis cache (see cache.go) when non-empty.
	CacheDir string
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
	// FullHit reports that the whole result was served from the cache
	// without parsing or type-checking anything.
	FullHit bool
	// Key is the whole-tree cache key (content hash).
	Key string
	// TypeErrs holds type-checker diagnostics ("path: err"), empty on a
	// full cache hit and on a tree that builds.
	TypeErrs []string
}

// RunTree is the one entry point the CLI, the tests and the benchmark
// share: resolve patterns, serve an unchanged tree from the cache, else
// load everything, run per-package rules per package and whole-program
// rules once over the combined Program, and return stable,
// module-relative findings.
func RunTree(root string, opts TreeOptions) (*TreeResult, error) {
	rules := opts.Rules
	if rules == nil {
		rules = Analyzers()
	}
	loader, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	dirs, err := loader.Dirs(opts.Patterns...)
	if err != nil {
		return nil, err
	}

	// Hash sources before deciding whether to load: a full cache hit
	// skips parsing and type-checking entirely.
	dirKeys := map[string]string{}
	for _, dir := range dirs {
		ip, err := loader.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		h, err := dirHash(dir)
		if err != nil {
			return nil, err
		}
		dirKeys[ip] = h
	}
	rh := ruleHash(rules)
	key := programKey(root, rh, dirKeys)
	res := &TreeResult{Packages: len(dirs), Key: key}

	if opts.CacheDir != "" {
		if cf := readCache(opts.CacheDir); cf.RuleHash == rh && cf.ProgramKey == key {
			res.Findings = decodeFindings(cf.Findings)
			res.FullHit = true
			return res, nil
		}
	}

	pkgs, err := loader.Load(opts.Patterns...)
	if err != nil {
		return nil, err
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrs {
			res.TypeErrs = append(res.TypeErrs, fmt.Sprintf("%s: %v", p.ImportPath, terr))
		}
	}

	var all []Finding
	prog := NewProgram(pkgs)
	for _, a := range rules {
		if a.RunProgram != nil {
			all = append(all, a.RunProgram(prog)...)
			continue
		}
		for _, p := range pkgs {
			all = append(all, a.Run(p)...)
		}
	}
	// Module-relative filenames and a zeroed byte offset, so fresh
	// findings compare equal to cache-decoded ones.
	for i := range all {
		if rel, err := filepath.Rel(root, all[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			all[i].Pos.Filename = filepath.ToSlash(rel)
		}
		all[i].Pos.Offset = 0
	}
	SortFindings(all)
	res.Findings = all

	if opts.CacheDir != "" {
		// Best-effort: a failed cache write only costs the next run time.
		_ = writeCache(opts.CacheDir, &cacheFile{
			Version: cacheVersion, RuleHash: rh, ProgramKey: key, Findings: encodeFindings(all),
		})
	}
	return res, nil
}
