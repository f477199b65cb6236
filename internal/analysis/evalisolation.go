package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// componentStatePackages names the internal packages whose concrete
// types carry per-component simulation state. A method call on one of
// their types from another package's Eval tree reaches into foreign
// component state and breaks shard isolation. Package link is
// deliberately absent: link ends are the sanctioned inter-component
// interface — each writer stages into its own field and values move
// only at Commit, so Eval-phase link calls are race-free by design.
var componentStatePackages = map[string]bool{
	"core":    true,
	"nic":     true,
	"cascade": true,
	"netsim":  true,
	"fault":   true,
	"scan":    true,
	"traffic": true,
}

// EvalIsolation returns the eval-isolation analyzer. The parallel clock
// engine evaluates components concurrently; its bit-for-bit equivalence
// with the serial engine holds only if no component's Eval touches
// state owned by another registered component (link endpoints exempt —
// their staged/registered split is the inter-component interface). The
// rule walks every component's Eval call tree — over the whole-program
// call graph, so helpers in other packages are on the hook too — and
// flags writes through another component-shaped value, method calls on
// other components (same package) or on component-state types from
// other internal packages (cross package, where the syntactic rule
// assumes mutation; shard-purity is the rule that proves it), and
// writes to package-level state. Legitimate sharing — cascade members
// co-located by construction, drivers and injectors running in the
// serialized epilogue — is declared with `//metrovet:shared <reason>`
// on the line or the enclosing function's doc comment, so every
// crossing of the isolation boundary is enumerable and justified.
func EvalIsolation() *Analyzer {
	return &Analyzer{
		Name: "eval-isolation",
		Doc:  "flag Eval-phase call trees (components and telemetry sinks) that touch another component's non-link state; annotate //metrovet:shared <reason> for co-located or serialized components",
		Run: func(p *Package) []Finding {
			return runEvalIsolation(NewProgram([]*Package{p}))
		},
		RunProgram: runEvalIsolation,
	}
}

func runEvalIsolation(prog *Program) []Finding {
	roots := isolationRoots(prog)
	if len(roots) == 0 {
		return nil
	}
	reached := prog.CallGraph().Reachable(roots, nil)
	var out []Finding
	for _, node := range reachedNodes(reached) {
		p, fd := node.Pkg, node.Decl
		if p.Types == nil || p.Info == nil || !isInternal(p.ImportPath) {
			continue
		}
		if internalName(p.ImportPath) == "link" {
			continue // the exempt package: link state IS the component interface
		}
		if docDirective(fd.Doc, "shared") {
			continue // whole function declared shared, with its reason
		}
		ri := reached[node]
		report := func(pos token.Position, root, what string) {
			if p.suppressed("eval-isolation", "shared", pos) {
				return
			}
			contract := "a sharded component may touch only its own state and link ends"
			if ri.Kind == "sink" {
				contract = "a telemetry sink observes the simulation and may write only its own buffers"
			}
			out = append(out, Finding{
				Pos:  pos,
				Rule: "eval-isolation",
				Msg: fmt.Sprintf("%s in Eval path (reachable from %s); %s — annotate //metrovet:shared <reason> if co-located or serialized",
					what, root, contract),
			})
		}
		checkIsolation(p, fd.Body, ri.Root, ri.Type, node.RecvName, report)
	}
	SortFindings(out)
	return out
}

// isolationRoots collects the Eval methods of component-shaped types
// plus the Sink methods of streaming taps, from every internal non-link
// package. (Commit latches a component's own registers; the isolation
// contract is about Eval. A Sink with the Recorder streaming-tap shape,
// one slice parameter and no results, consumes drained event batches on
// the engine's flushing goroutine: it observes a run in flight, so its
// call tree is held to the same observe-only contract.
// telemetry.MetricsSink is the canonical instance.)
func isolationRoots(prog *Program) []RootedNode {
	keep := func(p *Package) bool {
		return isInternal(p.ImportPath) && internalName(p.ImportPath) != "link"
	}
	roots := componentRoots(prog, keep, "Eval")
	for _, p := range prog.Packages {
		if p.Types == nil || !keep(p) {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) != 1 ||
					fd.Name.Name != "Sink" || !sinkShape(fd) {
					continue
				}
				tname := recvTypeName(fd)
				if tname == "" {
					continue
				}
				node := prog.FuncByKey(p.ImportPath + "." + tname + ".Sink")
				if node == nil {
					continue
				}
				roots = append(roots, RootedNode{
					Node: node,
					Root: fmt.Sprintf("(%s.%s).Sink", pkgLabel(p), tname),
					Type: tname,
					Kind: "sink",
				})
			}
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Root < roots[j].Root })
	return roots
}

// sinkShape reports whether fd has the Recorder streaming-tap shape: a
// single slice parameter (the drained event batch) and no results.
func sinkShape(fd *ast.FuncDecl) bool {
	ft := fd.Type
	if ft.Results != nil && len(ft.Results.List) > 0 {
		return false
	}
	if ft.Params == nil || len(ft.Params.List) != 1 || len(ft.Params.List[0].Names) > 1 {
		return false
	}
	arr, ok := ft.Params.List[0].Type.(*ast.ArrayType)
	return ok && arr.Len == nil
}

// checkIsolation walks one function body for isolation violations.
// ownRecv is the receiver type of the function being inspected;
// rootType is the component type whose Eval roots the tree — calls and
// writes to either are the component's own state (a sender helper
// calling back into its parent Endpoint stays inside the component).
func checkIsolation(p *Package, body *ast.BlockStmt, root, rootType, ownRecv string, report func(token.Position, string, string)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				checkWrite(p, lhs, root, rootType, ownRecv, report)
			}
		case *ast.IncDecStmt:
			checkWrite(p, s.X, root, rootType, ownRecv, report)
		case *ast.CallExpr:
			switch fun := ast.Unparen(s.Fun).(type) {
			case *ast.Ident:
				if (fun.Name == "delete" || fun.Name == "copy") && len(s.Args) > 0 && isBuiltin(p, fun) {
					checkWrite(p, s.Args[0], root, rootType, ownRecv, report)
				}
			case *ast.SelectorExpr:
				checkMethodCall(p, s, fun, root, rootType, ownRecv, report)
			}
		}
		return true
	})
}

// checkWrite flags assignment targets whose selector chain passes
// through another component-shaped value or roots at a package-level
// variable.
func checkWrite(p *Package, lhs ast.Expr, root, rootType, ownRecv string, report func(token.Position, string, string)) {
	for e := ast.Unparen(lhs); ; {
		switch ee := e.(type) {
		case *ast.SelectorExpr:
			if tn := componentTypeName(p, ee.X); tn != "" && tn != ownRecv && tn != rootType {
				report(p.Fset.Position(lhs.Pos()), root,
					fmt.Sprintf("write to state of component type %s", tn))
				return
			}
			e = ast.Unparen(ee.X)
		case *ast.IndexExpr:
			e = ast.Unparen(ee.X)
		case *ast.StarExpr:
			e = ast.Unparen(ee.X)
		case *ast.Ident:
			if obj := p.ObjectOf(ee); obj != nil {
				if v, ok := obj.(*types.Var); ok && v.Parent() == p.Types.Scope() {
					report(p.Fset.Position(lhs.Pos()), root,
						fmt.Sprintf("write to package-level state %s", ee.Name))
				}
			}
			return
		default:
			return
		}
	}
}

// checkMethodCall flags method calls on other components: same-package
// component-shaped types other than the function's own receiver, and
// concrete types from other internal component-state packages (where
// the callee's body is out of reach, so mutation is assumed).
func checkMethodCall(p *Package, call *ast.CallExpr, fun *ast.SelectorExpr, root, rootType, ownRecv string, report func(token.Position, string, string)) {
	if !isMethodCall(p, fun) {
		return // field-func call, package-qualified call, or unresolved
	}
	named := namedTypeOf(p.TypeOf(fun.X))
	if named == nil {
		return // interface, unnamed, or unknown receiver: not traceable
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return
	}
	path := obj.Pkg().Path()
	switch {
	case path == p.ImportPath || obj.Pkg() == p.Types:
		// Same package: only other component-shaped types are foreign
		// state; helpers and sub-structs of the receiver, and calls back
		// into the tree's own root component, are its own.
		if obj.Name() != ownRecv && obj.Name() != rootType && isComponentShaped(named) {
			report(p.Fset.Position(call.Pos()), root,
				fmt.Sprintf("call to (%s).%s, another component in this package", obj.Name(), fun.Sel.Name))
		}
	case isInternal(path) && internalName(path) != "link" && componentStatePackages[internalName(path)]:
		report(p.Fset.Position(call.Pos()), root,
			fmt.Sprintf("call to (%s.%s).%s, component state in another package", internalName(path), obj.Name(), fun.Sel.Name))
	}
}

// isMethodCall reports whether sel is a method value selection (not a
// struct field holding a func, and not a package-qualified function).
func isMethodCall(p *Package, sel *ast.SelectorExpr) bool {
	for _, info := range []*types.Info{p.Info, p.XInfo} {
		if info == nil {
			continue
		}
		if s, ok := info.Selections[sel]; ok {
			return s.Kind() == types.MethodVal
		}
	}
	return false
}

// namedTypeOf unwraps pointers to the named type, or nil.
func namedTypeOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// componentTypeName returns the named type of e when it is
// component-shaped (declares the Eval/Commit pair), else "".
func componentTypeName(p *Package, e ast.Expr) string {
	named := namedTypeOf(p.TypeOf(e))
	if named == nil || !isComponentShaped(named) {
		return ""
	}
	return named.Obj().Name()
}

// isComponentShaped reports whether *T declares the clock.Component
// method pair: Eval(uint64) and Commit(uint64).
func isComponentShaped(named *types.Named) bool {
	ms := types.NewMethodSet(types.NewPointer(named))
	found := 0
	for _, name := range []string{"Eval", "Commit"} {
		sel := ms.Lookup(named.Obj().Pkg(), name)
		if sel == nil {
			// Exported methods are visible from any package.
			sel = ms.Lookup(nil, name)
		}
		if sel == nil {
			continue
		}
		sig, ok := sel.Obj().Type().(*types.Signature)
		if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 0 {
			continue
		}
		if b, ok := sig.Params().At(0).Type().(*types.Basic); ok && b.Kind() == types.Uint64 {
			found++
		}
	}
	return found == 2
}
