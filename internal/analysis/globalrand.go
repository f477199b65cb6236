package analysis

import (
	"fmt"
	"go/ast"
	"strconv"
)

// mathRandAllowed lists the math/rand (and math/rand/v2) names that do
// NOT touch the package-global generator: constructors and types for
// explicitly seeded instances. Everything else on the package (Intn,
// Shuffle, Perm, Seed, ...) draws from global state whose sequence
// depends on whatever else has consumed it — nondeterministic across
// runs and across unrelated code changes.
var mathRandAllowed = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // rand/v2
	"NewChaCha8": true,
	"Rand":       true,
	"Source":     true,
	"Source64":   true,
	"Zipf":       true,
	"PCG":        true,
	"ChaCha8":    true,
}

// GlobalRand returns the no-global-rand analyzer. METRO cascade members
// must observe identical random bit streams (paper, Section 5.1), so all
// simulation randomness flows through internal/prng or an explicitly
// seeded *rand.Rand; the global math/rand generator and crypto/rand are
// both unreproducible.
func GlobalRand() *Analyzer {
	return &Analyzer{
		Name: "no-global-rand",
		Doc:  "forbid crypto/rand and global math/rand state in internal/ packages; randomness flows through internal/prng or seeded *rand.Rand instances",
		Run:  eachPackage(runGlobalRand),
	}
}

func runGlobalRand(p *Package) []Finding {
	if !isInternal(p.ImportPath) {
		return nil
	}
	var out []Finding
	for _, f := range p.AllFiles() {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || path != "crypto/rand" {
				continue
			}
			pos := p.Fset.Position(imp.Pos())
			if p.suppressed("no-global-rand", "ignore", pos) {
				continue
			}
			out = append(out, Finding{
				Pos:  pos,
				Rule: "no-global-rand",
				Msg:  "crypto/rand is inherently unreproducible; simulation randomness must flow through internal/prng",
			})
		}
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
			if !ok || (path != "math/rand" && path != "math/rand/v2") {
				return true
			}
			if mathRandAllowed[sel.Sel.Name] {
				return true
			}
			pos := p.Fset.Position(sel.Pos())
			if p.suppressed("no-global-rand", "ignore", pos) {
				return true
			}
			out = append(out, Finding{
				Pos:  pos,
				Rule: "no-global-rand",
				Msg: fmt.Sprintf("%s.%s uses the global math/rand generator, whose stream is not reproducible; use internal/prng or a seeded *rand.Rand",
					id.Name, sel.Sel.Name),
			})
			return true
		})
	}
	return out
}
