package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// MapRange returns the ordered-map-iteration analyzer. Go randomizes map
// iteration order on every run, so a `for … range m` over a map inside a
// package that mutates simulation state per cycle is a reproducibility
// hazard: any state mutation, trace emission, or tie-break performed in
// such a loop varies between runs with identical seeds. Loops must either
// iterate sorted keys (or an indexed slice) or carry a
// `//metrovet:ordered <reason>` annotation stating why order cannot
// matter.
func MapRange() *Analyzer {
	return &Analyzer{
		Name: "ordered-map-iteration",
		Doc:  "flag range-over-map in cycle-state packages (core, netsim, cascade, nic, fault, topo); iterate sorted keys or annotate //metrovet:ordered <reason>",
		Run:  eachPackage(runMapRange),
	}
}

func runMapRange(p *Package) []Finding {
	if !isCycleStatePackage(p.ImportPath) {
		return nil
	}
	var out []Finding
	for _, f := range p.AllFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if !rangesOverMap(p, rs.X) {
				return true
			}
			pos := p.Fset.Position(rs.For)
			if p.suppressed("ordered-map-iteration", "ordered", pos) {
				return true
			}
			out = append(out, Finding{
				Pos:  pos,
				Rule: "ordered-map-iteration",
				Msg: fmt.Sprintf("iteration over map %s has nondeterministic order; iterate sorted keys or annotate //metrovet:ordered <reason>",
					exprString(rs.X)),
			})
			return true
		})
	}
	return out
}

// rangesOverMap reports whether expr has map type. Type information is
// authoritative; when it is missing (type-check hole) a small syntactic
// fallback catches direct map literals and make(map[...]) expressions.
func rangesOverMap(p *Package, expr ast.Expr) bool {
	if t := p.TypeOf(expr); t != nil && t != types.Typ[types.Invalid] {
		_, isMap := t.Underlying().(*types.Map)
		return isMap
	}
	switch e := ast.Unparen(expr).(type) {
	case *ast.CompositeLit:
		_, ok := e.Type.(*ast.MapType)
		return ok
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && len(e.Args) > 0 {
			_, ok := e.Args[0].(*ast.MapType)
			return ok
		}
	}
	return false
}

// exprString renders a short display form of the ranged expression.
func exprString(expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[…]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(…)"
	case *ast.CompositeLit:
		return "(map literal)"
	default:
		return "(expression)"
	}
}
