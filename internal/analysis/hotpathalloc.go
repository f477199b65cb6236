package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAlloc returns the hot-path-alloc analyzer. The per-cycle
// Eval/Commit path is the simulator's inner loop: every component runs it
// once per simulated clock cycle, millions of times per experiment, and
// the ROADMAP's "as fast as the hardware allows" goal dies by a thousand
// hidden heap allocations there. Hardware has no allocator; the model's
// cycle path shouldn't either.
//
// The rule: in the bodies of Eval/Commit methods of clocked types — any
// type declaring either (clock.Component, clock.Latch) — and every
// function reachable from them over the whole-program call graph
// (static calls, method values, CHA-resolved interface dispatch; see
// callgraph.go), the analyzer flags the allocation idioms Go hides in
// plain sight:
// make/new, growing append, slice and map composite literals, &composite
// literals, fmt calls, string concatenation, and interface boxing of
// non-pointer values. Justified sites (per-message work that is not
// per-cycle, appends into buffers whose capacity is preallocated) carry
// `//metrovet:alloc <reason>` on the line or, for whole per-message
// helpers, on the function's doc comment. The static rule is paired with
// AllocsPerRun-gated benchmarks (internal/core, internal/link,
// internal/nic) proving zero allocations per steady-state cycle at
// runtime.
func HotPathAlloc() *Analyzer {
	return &Analyzer{
		Name: "hot-path-alloc",
		Doc:  "flag heap-allocation idioms reachable from clock.Component Eval/Commit; annotate //metrovet:alloc <reason> for justified per-message work",
		Run: func(p *Package) []Finding {
			return runHotPathAlloc(NewProgram([]*Package{p}))
		},
		RunProgram: runHotPathAlloc,
	}
}

func runHotPathAlloc(prog *Program) []Finding {
	roots := componentRoots(prog, nil, "Eval", "Commit")
	if len(roots) == 0 {
		return nil
	}
	reached := prog.CallGraph().Reachable(roots, nil)
	var out []Finding
	for _, node := range reachedNodes(reached) {
		p, fd := node.Pkg, node.Decl
		if p.Types == nil || p.Info == nil {
			continue
		}
		if docDirective(fd.Doc, "alloc") {
			continue // whole function justified (per-message helper)
		}
		root := reached[node].Root
		report := func(pos token.Position, root, what string) {
			if p.suppressed("hot-path-alloc", "alloc", pos) {
				return
			}
			out = append(out, Finding{
				Pos:  pos,
				Rule: "hot-path-alloc",
				Msg: fmt.Sprintf("%s in per-cycle path (reachable from %s); preallocate scratch on the component or annotate //metrovet:alloc <reason>",
					what, root),
			})
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.CallExpr:
				checkCallAlloc(p, e, root, report)
			case *ast.UnaryExpr:
				if e.Op == token.AND {
					if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
						report(p.Fset.Position(e.Pos()), root, "&composite literal escapes to the heap")
					}
				}
			case *ast.CompositeLit:
				switch p.typeUnderlying(e) {
				case "slice":
					report(p.Fset.Position(e.Pos()), root, "slice literal allocates its backing array")
				case "map":
					report(p.Fset.Position(e.Pos()), root, "map literal allocates")
				}
			case *ast.BinaryExpr:
				if e.Op == token.ADD && isStringType(p.TypeOf(e.X)) {
					report(p.Fset.Position(e.Pos()), root, "string concatenation allocates")
				}
			case *ast.AssignStmt:
				if len(e.Lhs) == len(e.Rhs) {
					for i := range e.Lhs {
						if isInterfaceType(p.TypeOf(e.Lhs[i])) && isBoxable(p.TypeOf(e.Rhs[i])) {
							report(p.Fset.Position(e.Rhs[i].Pos()), root, "interface boxing of a non-pointer value allocates")
						}
					}
				}
			}
			return true
		})
	}
	SortFindings(out)
	return out
}

// checkCallAlloc flags allocating calls: the make/new/append builtins, fmt
// formatting, conversions to interface types, and interface boxing of
// non-pointer arguments at interface-typed parameters.
func checkCallAlloc(p *Package, call *ast.CallExpr, root string, report func(token.Position, string, string)) {
	pos := p.Fset.Position(call.Pos())
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if isBuiltin(p, fun) {
			switch fun.Name {
			case "make":
				report(pos, root, "make allocates")
			case "new":
				report(pos, root, "new allocates")
			case "append":
				report(pos, root, "append may grow its backing array")
			}
			return
		}
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			if path, ok := p.PkgNameOf(x); ok && path == "fmt" {
				report(pos, root, "fmt call allocates")
				return
			}
		}
	}
	switch ft := p.TypeOf(call.Fun).(type) {
	case *types.Signature:
		params := ft.Params()
		for i, arg := range call.Args {
			var pt types.Type
			switch {
			case ft.Variadic() && i >= params.Len()-1:
				if call.Ellipsis.IsValid() {
					continue // s... passes the slice through, no per-element boxing
				}
				if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
					pt = sl.Elem()
				}
			case i < params.Len():
				pt = params.At(i).Type()
			}
			if pt != nil && isInterfaceType(pt) && isBoxable(p.TypeOf(arg)) {
				report(p.Fset.Position(arg.Pos()), root, "interface boxing of a non-pointer value allocates")
			}
		}
	default:
		// A call whose Fun is a type is a conversion; converting a
		// non-pointer value to an interface boxes it.
		if ft != nil && isInterfaceType(ft) && len(call.Args) == 1 && isBoxable(p.TypeOf(call.Args[0])) {
			report(pos, root, "interface boxing of a non-pointer value allocates")
		}
	}
}

// typeUnderlying classifies a composite literal's underlying type.
func (p *Package) typeUnderlying(e ast.Expr) string {
	t := p.TypeOf(e)
	if t == nil {
		return ""
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return ""
}

func isInterfaceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isBoxable reports whether storing a value of type t in an interface
// heap-allocates: true for value shapes (basics, structs, arrays, slices),
// false for pointer-shaped types (pointers, maps, chans, funcs), untyped
// nil, and interfaces themselves.
func isBoxable(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() != types.UntypedNil && u.Kind() != types.Invalid && u.Kind() != types.UnsafePointer
	case *types.Struct, *types.Array, *types.Slice:
		return true
	}
	return false
}
