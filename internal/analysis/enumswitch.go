package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// EnumSwitch returns the exhaustive-enum-switch analyzer. METRO's
// correctness argument is a set of small hardware state machines — the
// Section 5 port protocol, the 1149.1 TAP, the NIC send/receive engines —
// that silicon enumerates exhaustively and the Go model encodes as switch
// statements over iota enums. A switch that silently ignores an unlisted
// state (or lets it fall into a quiet default) is exactly the kind of
// protocol hole that never fails a test: adding a new word.Kind or port
// state compiles everywhere and misbehaves at runtime.
//
// The rule: every switch whose tag is a module-local enum-like type (a
// defined integer type with at least two declared constants) must name
// every constant value in its case arms. A default arm is legal only when
// it panics (the hardware-assert idiom: unreachable states crash loudly)
// or when the switch carries a `//metrovet:nonexhaustive <reason>`
// annotation stating why the unlisted states need no handling. Once every
// constant is named, a default arm is also legal as an out-of-band guard:
// it can only see values outside the declared alphabet (corrupted data).
func EnumSwitch() *Analyzer {
	return &Analyzer{
		Name: "exhaustive-enum-switch",
		Doc:  "flag switches over enum-like types that neither name every constant nor panic in default; annotate //metrovet:nonexhaustive <reason>",
		Run:  eachPackage(runEnumSwitch),
	}
}

func runEnumSwitch(p *Package) []Finding {
	var out []Finding
	// Compiled files only: the rule protects the model's protocol code;
	// tests legitimately probe subsets of the state space.
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			named, enum := enumTypeOf(p, sw.Tag)
			if enum == nil {
				return true
			}
			missing, defaulted, defaultPanics, checkable := switchCoverage(p, sw, enum)
			if !checkable || len(missing) == 0 {
				return true
			}
			if defaulted && defaultPanics {
				return true
			}
			pos := p.Fset.Position(sw.Switch)
			if p.suppressed("exhaustive-enum-switch", "nonexhaustive", pos) {
				return true
			}
			what := "has no default"
			if defaulted {
				what = "has a silent default"
			}
			out = append(out, Finding{
				Pos:  pos,
				Rule: "exhaustive-enum-switch",
				Msg: fmt.Sprintf("switch over %s %s and does not handle %s; name every constant, panic in default, or annotate //metrovet:nonexhaustive <reason>",
					named.Obj().Name(), what, strings.Join(missing, ", ")),
			})
			return true
		})
	}
	return out
}

// enumTypeOf reports whether expr's type is enum-like: a module-local
// defined type whose underlying type is an integer and for which the
// defining package declares at least two constants. It returns the named
// type and its constants (nil when not enum-like).
func enumTypeOf(p *Package, expr ast.Expr) (*types.Named, []*types.Const) {
	t := p.TypeOf(expr)
	if t == nil {
		return nil, nil
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, nil
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return nil, nil
	}
	pkg := named.Obj().Pkg()
	if pkg == nil || !sameModule(p.ImportPath, pkg.Path()) {
		return nil, nil
	}
	consts := enumConstants(pkg, named)
	if len(consts) < 2 {
		return nil, nil
	}
	return named, consts
}

// sameModule reports whether two import paths share the module root (their
// first path segment). This keeps the rule to the repository's own enums:
// stdlib enumerations carry no protocol obligation here.
func sameModule(a, b string) bool {
	root := func(s string) string {
		if i := strings.IndexByte(s, '/'); i >= 0 {
			return s[:i]
		}
		return s
	}
	return root(a) == root(b)
}

// enumConstants collects the package-scope constants of exactly the named
// type, sorted by value then name for stable reporting.
func enumConstants(pkg *types.Package, named *types.Named) []*types.Const {
	var out []*types.Const
	scope := pkg.Scope()
	for _, name := range scope.Names() { // Names() is sorted
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		out = append(out, c)
	}
	sort.SliceStable(out, func(i, j int) bool {
		vi, oki := constant.Int64Val(out[i].Val())
		vj, okj := constant.Int64Val(out[j].Val())
		if oki && okj && vi != vj {
			return vi < vj
		}
		return out[i].Name() < out[j].Name()
	})
	return out
}

// switchCoverage computes which enum constants the switch fails to handle.
// checkable is false when a case expression has no known constant value
// (the analyzer cannot reason about dynamic cases). Constants sharing a
// value (aliases) count as one: covering any of them covers the value.
func switchCoverage(p *Package, sw *ast.SwitchStmt, consts []*types.Const) (missing []string, defaulted, defaultPanics, checkable bool) {
	covered := map[string]bool{} // by exact constant value string
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			defaulted = true
			defaultPanics = bodyPanics(cc.Body)
			continue
		}
		for _, e := range cc.List {
			v := constValueOf(p, e)
			if v == nil {
				return nil, defaulted, defaultPanics, false
			}
			covered[v.ExactString()] = true
		}
	}
	seen := map[string]bool{}
	for _, c := range consts {
		key := c.Val().ExactString()
		if covered[key] || seen[key] {
			continue
		}
		seen[key] = true
		missing = append(missing, c.Name())
	}
	return missing, defaulted, defaultPanics, true
}

// constValueOf resolves a case expression's constant value across both
// check units.
func constValueOf(p *Package, e ast.Expr) constant.Value {
	for _, info := range []*types.Info{p.Info, p.XInfo} {
		if info == nil {
			continue
		}
		if tv, ok := info.Types[e]; ok && tv.Value != nil {
			return tv.Value
		}
	}
	return nil
}

// bodyPanics reports whether a case body contains a direct panic call —
// the hardware-assert idiom making unlisted states crash loudly.
func bodyPanics(body []ast.Stmt) bool {
	for _, s := range body {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			return true
		}
	}
	return false
}
