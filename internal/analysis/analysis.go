// Package analysis implements metrovet, the repository's custom static
// analysis pass enforcing simulator determinism discipline.
//
// METRO's correctness argument rests on reproducibility: width-cascaded
// routers stay consistent only because identical inputs plus identical
// shared random bits yield identical allocations (paper, Section 5.1), and
// every experiment in this repository is expected to be reproducible bit
// for bit from its seeds. Hidden nondeterminism in the Go model — map
// iteration order, wall-clock reads, global math/rand state — silently
// invalidates cycle-accurate results without failing any test.
//
// The pass is built from named, individually testable analyzers (see
// Analyzers). Each reports findings as "file:line: rule-id: message".
// Findings are fixed or suppressed inline with a justified directive
// comment; there is no baseline file. The recognized directives are:
//
//	//metrovet:ordered <reason>   — this map iteration is order-independent
//	//metrovet:nonexhaustive <reason> — this enum switch deliberately
//	                                handles a subset of the states
//	//metrovet:alloc <reason>     — this hot-path allocation is justified
//	                                (per-message work, preallocated capacity)
//	//metrovet:shared <reason>    — this Eval-phase touch of another
//	                                component's state is safe (co-located on
//	                                one shard, or serialized epilogue)
//	//metrovet:truncate <reason>  — this narrowing conversion is an
//	                                intended truncation
//	//metrovet:width <reason>     — this shift amount is bounded by
//	                                something the expression does not show
//	//metrovet:ignore <rule> <reason> — suppress any rule on this line
//
// A directive with no reason does not suppress anything: the justification
// is the point.
//
// Only the standard library (go/ast, go/parser, go/token, go/types) is
// used; see docs/DETERMINISM.md for the contract the rules enforce.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the canonical "file:line: rule-id: message" form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// Analyzer is one named rule of the metrovet pass. Run analyzes every
// loaded package at once: a whole-program rule sees the interprocedural
// call graph, and a per-package rule visits the packages one at a time
// through eachPackage.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Program) []Finding
}

// eachPackage lifts a per-package rule to the Analyzer signature.
func eachPackage(run func(*Package) []Finding) func(*Program) []Finding {
	return func(prog *Program) []Finding {
		var out []Finding
		for _, p := range prog.Packages {
			out = append(out, run(p)...)
		}
		return out
	}
}

// Analyzers returns the full rule set in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WallClock(),
		GlobalRand(),
		MapRange(),
		InvariantCoverage(),
		EnumSwitch(),
		HotPathAlloc(),
		EvalIsolation(),
		TruncatingConversion(),
		WidthContract(),
	}
}

// Package is one loaded, type-checked package as the analyzers see it:
// the compiled files plus in-package test files form the main check unit,
// and external (package foo_test) files are checked as a sibling unit.
type Package struct {
	// ImportPath is the package's import path ("metro/internal/core").
	ImportPath string
	// Dir is the package directory (empty for in-memory fixtures).
	Dir string
	// Fset positions every parsed file, including imported sources.
	Fset *token.FileSet
	// Files holds the compiled (non-test) files.
	Files []*ast.File
	// TestFiles holds the in-package _test.go files the build selects.
	TestFiles []*ast.File
	// XTestFiles holds the external test package's files, if any.
	XTestFiles []*ast.File
	// Types is the checked package (compiled files only, as imports see
	// it). Info covers Files and TestFiles; XInfo covers XTestFiles. Any
	// may be partially filled when the package has type errors.
	Types *types.Package
	Info  *types.Info
	XInfo *types.Info
	// TypeErrs collects type-checker diagnostics (the analyzers tolerate
	// holes in type information; a package that builds has none).
	TypeErrs []error

	dirs suppressions
}

// AllFiles returns the compiled, in-package test, and external test files.
func (p *Package) AllFiles() []*ast.File {
	out := make([]*ast.File, 0, len(p.Files)+len(p.TestFiles)+len(p.XTestFiles))
	out = append(out, p.Files...)
	out = append(out, p.TestFiles...)
	return append(out, p.XTestFiles...)
}

// TypeOf returns the type of expr from whichever check unit covers it, or
// nil when type information is unavailable.
func (p *Package) TypeOf(expr ast.Expr) types.Type {
	for _, info := range []*types.Info{p.Info, p.XInfo} {
		if info == nil {
			continue
		}
		if t := info.TypeOf(expr); t != nil {
			return t
		}
	}
	return nil
}

// ObjectOf resolves an identifier to its object across both check units.
func (p *Package) ObjectOf(id *ast.Ident) types.Object {
	for _, info := range []*types.Info{p.Info, p.XInfo} {
		if info == nil {
			continue
		}
		if obj := info.ObjectOf(id); obj != nil {
			return obj
		}
	}
	return nil
}

// PkgNameOf reports the import path of the package an identifier refers
// to, when the identifier names an imported package ("time" in time.Now).
func (p *Package) PkgNameOf(id *ast.Ident) (string, bool) {
	if pn, ok := p.ObjectOf(id).(*types.PkgName); ok {
		return pn.Imported().Path(), true
	}
	return "", false
}

// isInternal reports whether the package is part of the simulation model
// proper (under internal/), the scope of the determinism rules.
func isInternal(importPath string) bool {
	return strings.HasPrefix(importPath, "internal/") ||
		strings.Contains(importPath, "/internal/")
}

// internalName returns the first path segment after internal/ ("core" for
// metro/internal/core).
func internalName(importPath string) string {
	const marker = "internal/"
	i := strings.Index(importPath, marker)
	if i < 0 {
		return ""
	}
	rest := importPath[i+len(marker):]
	if j := strings.IndexByte(rest, '/'); j >= 0 {
		rest = rest[:j]
	}
	return rest
}

// cycleStatePackages names the packages that mutate simulation state per
// clock cycle; the ordered-map-iteration rule applies only to these (topo
// is included because its structures feed netsim wiring
// deterministically).
var cycleStatePackages = map[string]bool{
	"core":    true,
	"netsim":  true,
	"cascade": true,
	"nic":     true,
	"fault":   true,
	"topo":    true,
}

func isCycleStatePackage(importPath string) bool {
	return isInternal(importPath) && cycleStatePackages[internalName(importPath)]
}

// directive is one parsed //metrovet: comment.
type directive struct {
	kind   string // "ordered", "shared", ..., "ignore"
	rule   string // ignore only: the rule id being suppressed
	reason string
}

// suppressions indexes directives by filename and line.
type suppressions map[string]map[int][]directive

// parseDirective parses a single comment's text, returning ok=false for
// non-metrovet comments and for directives with no justification (which
// deliberately suppress nothing).
func parseDirective(text string) (directive, bool) {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "metrovet:") {
		return directive{}, false
	}
	body := strings.TrimPrefix(text, "metrovet:")
	kind, rest, _ := strings.Cut(body, " ")
	rest = strings.TrimSpace(rest)
	switch kind {
	case "ordered", "nonexhaustive", "alloc", "shared", "truncate", "width":
		if rest == "" {
			return directive{}, false
		}
		return directive{kind: kind, reason: rest}, true
	case "ignore":
		rule, reason, _ := strings.Cut(rest, " ")
		reason = strings.TrimSpace(reason)
		if rule == "" || reason == "" {
			return directive{}, false
		}
		return directive{kind: kind, rule: rule, reason: reason}, true
	}
	return directive{}, false
}

// buildSuppressions scans every comment in the package once.
func (p *Package) buildSuppressions() {
	p.dirs = suppressions{}
	for _, f := range p.AllFiles() {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				byLine := p.dirs[pos.Filename]
				if byLine == nil {
					byLine = map[int][]directive{}
					p.dirs[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], d)
			}
		}
	}
}

// suppressed reports whether a finding of rule at pos is covered by a
// directive of the given kind (or a matching generic ignore) on the same
// line or the line immediately above.
func (p *Package) suppressed(rule, kind string, pos token.Position) bool {
	if p.dirs == nil {
		p.buildSuppressions()
	}
	byLine := p.dirs[pos.Filename]
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range byLine[line] {
			if d.kind == kind && kind != "ignore" {
				return true
			}
			if d.kind == "ignore" && d.rule == rule {
				return true
			}
		}
	}
	return false
}

// docDirective reports whether a declaration's doc comment carries a
// directive of the given kind.
func docDirective(doc *ast.CommentGroup, kind string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if d, ok := parseDirective(c.Text); ok && d.kind == kind {
			return true
		}
	}
	return false
}

// SortFindings orders findings by (file, line, column, rule, message)
// for stable output: every emitter sorts through this one comparator, so
// text and JSON encodings agree on order.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}
