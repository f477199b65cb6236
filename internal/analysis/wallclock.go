package analysis

import (
	"fmt"
	"go/ast"
)

// wallClockFuncs are the package time entry points that read the host's
// wall clock or schedule against it. Any of them inside the simulation
// model makes results depend on host timing instead of the cycle counter.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"Sleep":     true,
	"NewTimer":  true,
	"NewTicker": true,
}

// WallClock returns the no-wallclock analyzer: simulation packages take
// time exclusively from internal/clock's cycle counter; reading the host
// clock (time.Now and friends) makes cycle-accurate results depend on
// wall-clock scheduling and breaks bit-for-bit reproducibility.
func WallClock() *Analyzer {
	return &Analyzer{
		Name: "no-wallclock",
		Doc:  "forbid wall-clock reads (time.Now etc.) in internal/ simulation packages; cycle time comes from internal/clock",
		Run:  eachPackage(runWallClock),
	}
}

func runWallClock(p *Package) []Finding {
	if !isInternal(p.ImportPath) {
		return nil
	}
	var out []Finding
	for _, f := range p.AllFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			path, ok := p.PkgNameOf(id)
			if !ok || path != "time" || !wallClockFuncs[sel.Sel.Name] {
				return true
			}
			pos := p.Fset.Position(sel.Pos())
			if p.suppressed("no-wallclock", "ignore", pos) {
				return true
			}
			out = append(out, Finding{
				Pos:  pos,
				Rule: "no-wallclock",
				Msg: fmt.Sprintf("time.%s reads the host wall clock; simulation time must come from the internal/clock cycle counter",
					sel.Sel.Name),
			})
			return true
		})
	}
	return out
}
