package analysis

import (
	"fmt"
	"go/ast"
	"regexp"
)

// invariantFuncRE matches exported structural-audit entry points like
// CheckInvariants or CheckNetworkInvariant.
var invariantFuncRE = regexp.MustCompile(`^Check\w*Invariants?$`)

// InvariantCoverage returns the invariant-coverage analyzer. An exported
// CheckInvariants-style auditor that no test in its package calls is
// dead armor: the invariants it encodes stop being checked the moment
// the last external caller drifts away, and regressions in the state
// machine go unnoticed. Every package exporting such a function must
// exercise it from at least one of its own tests.
func InvariantCoverage() *Analyzer {
	return &Analyzer{
		Name: "invariant-coverage",
		Doc:  "flag exported Check…Invariants functions not called from any test in the same package",
		Run:  eachPackage(runInvariantCoverage),
	}
}

func runInvariantCoverage(p *Package) []Finding {
	if !isInternal(p.ImportPath) {
		return nil
	}
	type invFunc struct {
		name string
		decl *ast.FuncDecl
	}
	var funcs []invFunc
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !invariantFuncRE.MatchString(fd.Name.Name) || !ast.IsExported(fd.Name.Name) {
				continue
			}
			funcs = append(funcs, invFunc{fd.Name.Name, fd})
		}
	}
	if len(funcs) == 0 {
		return nil
	}

	// Collect every function name called from this package's tests
	// (in-package and external), whether directly or via a selector.
	called := map[string]bool{}
	testFiles := append(append([]*ast.File{}, p.TestFiles...), p.XTestFiles...)
	for _, f := range testFiles {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				called[fun.Name] = true
			case *ast.SelectorExpr:
				called[fun.Sel.Name] = true
			}
			return true
		})
	}

	var out []Finding
	for _, fn := range funcs {
		if called[fn.name] {
			continue
		}
		pos := p.Fset.Position(fn.decl.Name.Pos())
		if p.suppressed("invariant-coverage", "ignore", pos) {
			continue
		}
		out = append(out, Finding{
			Pos:  pos,
			Rule: "invariant-coverage",
			Msg: fmt.Sprintf("exported %s is not called from any test in %s; invariants that tests never run do not protect anything",
				fn.name, p.ImportPath),
		})
	}
	return out
}
