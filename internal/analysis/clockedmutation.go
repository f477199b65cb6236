package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// clockRootNames are the methods that constitute the clocked cycle path:
// a clock.Component's Eval, a clock.Latch's Commit, and the
// engine-wrapper entry points that drive them.
var clockRootNames = map[string]bool{
	"Eval":          true,
	"Commit":        true,
	"Step":          true,
	"Run":           true,
	"RunUntil":      true,
	"RunUntilQuiet": true,
}

// ClockedMutation returns the clocked-mutation analyzer. In a two-phase
// clocked simulation every state change is supposed to happen inside the
// Eval/Commit cycle path; an exported method that mutates receiver state
// from outside that path is a mid-cycle mutation footgun — callers can
// invoke it between Eval and Commit and produce states no hardware
// schedule could reach. Deliberate out-of-cycle entry points (scan-driven
// reconfiguration, fault injection, test scaffolding) must say so with a
// `//metrovet:mutator <reason>` annotation, so that every such door into
// the model is enumerable and justified.
func ClockedMutation() *Analyzer {
	return &Analyzer{
		Name: "clocked-mutation",
		Doc:  "flag exported methods on clocked types that mutate receiver state outside the Eval/Commit path; annotate deliberate entry points //metrovet:mutator <reason>",
		Run:  runClockedMutation,
	}
}

// methodFacts holds the per-method analysis results for one receiver type.
type methodFacts struct {
	decl    *ast.FuncDecl
	mutates bool            // assigns through the receiver
	calls   map[string]bool // same-type methods invoked on the receiver
}

func runClockedMutation(p *Package) []Finding {
	if !isCycleStatePackage(p.ImportPath) {
		return nil
	}
	// Gather methods by receiver type from compiled files only: test
	// helpers are not part of the model's API surface.
	byType := map[string]map[string]*methodFacts{}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			tname := recvTypeName(fd)
			if tname == "" {
				continue
			}
			m := byType[tname]
			if m == nil {
				m = map[string]*methodFacts{}
				byType[tname] = m
			}
			m[fd.Name.Name] = analyzeMethod(p, fd)
		}
	}

	var out []Finding
	for tname, methods := range byType {
		if !ast.IsExported(tname) {
			continue
		}
		clocked := false
		for name := range methods {
			if clockRootNames[name] {
				clocked = true
				break
			}
		}
		if !clocked {
			continue
		}
		inCycle := reachableFromRoots(methods)
		mutating := mutationClosure(methods)
		for name, mf := range methods {
			if !ast.IsExported(name) || clockRootNames[name] {
				continue
			}
			if !mutating[name] || inCycle[name] {
				continue
			}
			if docDirective(mf.decl.Doc, "mutator") {
				continue
			}
			pos := p.Fset.Position(mf.decl.Name.Pos())
			if p.suppressed("clocked-mutation", "mutator", pos) {
				continue
			}
			out = append(out, Finding{
				Pos:  pos,
				Rule: "clocked-mutation",
				Msg: fmt.Sprintf("exported method (%s).%s mutates simulator state outside the Eval/Commit cycle path; annotate //metrovet:mutator <reason> if this is a deliberate out-of-cycle entry point",
					tname, name),
			})
		}
	}
	return out
}

// recvTypeName extracts the receiver's named type ("Router" from
// (r *Router)); generic receivers resolve through their index expression.
func recvTypeName(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	for {
		switch tt := ast.Unparen(t).(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// analyzeMethod records whether fd directly assigns through its receiver
// and which same-receiver methods it calls.
func analyzeMethod(p *Package, fd *ast.FuncDecl) *methodFacts {
	mf := &methodFacts{decl: fd, calls: map[string]bool{}}
	names := fd.Recv.List[0].Names
	if len(names) != 1 || fd.Body == nil {
		return mf // anonymous receiver: the method cannot touch it
	}
	recv := names[0]
	recvObj := p.ObjectOf(recv)
	isRecv := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		if recvObj != nil {
			if obj := p.ObjectOf(id); obj != nil {
				return obj == recvObj
			}
		}
		return id.Name == recv.Name
	}
	// rootedInRecv unwraps selector/index/star chains: r.a.b[i] roots at r.
	var rootedInRecv func(e ast.Expr) bool
	rootedInRecv = func(e ast.Expr) bool {
		switch ee := ast.Unparen(e).(type) {
		case *ast.Ident:
			return isRecv(ee)
		case *ast.SelectorExpr:
			return rootedInRecv(ee.X)
		case *ast.IndexExpr:
			return rootedInRecv(ee.X)
		case *ast.StarExpr:
			return rootedInRecv(ee.X)
		}
		return false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				// A bare `r = …` rebinding doesn't mutate shared state;
				// anything deeper (r.f = …, r.f[i] = …, *r = …) does.
				if _, isIdent := ast.Unparen(lhs).(*ast.Ident); !isIdent && rootedInRecv(lhs) {
					mf.mutates = true
				}
			}
		case *ast.IncDecStmt:
			if _, isIdent := ast.Unparen(s.X).(*ast.Ident); !isIdent && rootedInRecv(s.X) {
				mf.mutates = true
			}
		case *ast.CallExpr:
			switch fun := ast.Unparen(s.Fun).(type) {
			case *ast.Ident:
				// delete(r.m, k) and copy(r.s, …) mutate their first
				// argument in place.
				if (fun.Name == "delete" || fun.Name == "copy") && len(s.Args) > 0 {
					if isBuiltin(p, fun) && rootedInRecv(s.Args[0]) {
						mf.mutates = true
					}
				}
			case *ast.SelectorExpr:
				// r.helper(...) — an edge to a same-type method. Calls on
				// fields (r.engine.Add) are not receiver mutations.
				if isRecv(fun.X) {
					mf.calls[fun.Sel.Name] = true
				}
			}
		}
		return true
	})
	return mf
}

// isBuiltin reports whether id resolves to a universe-scope builtin (or
// is unresolvable, in which case the name is trusted).
func isBuiltin(p *Package, id *ast.Ident) bool {
	obj := p.ObjectOf(id)
	if obj == nil {
		return true
	}
	_, ok := obj.(*types.Builtin)
	return ok
}

// mutationClosure propagates "mutates" across same-type calls: a method
// calling a mutating method mutates.
func mutationClosure(methods map[string]*methodFacts) map[string]bool {
	out := map[string]bool{}
	for name, mf := range methods {
		if mf.mutates {
			out[name] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for name, mf := range methods {
			if out[name] {
				continue
			}
			for callee := range mf.calls {
				if out[callee] {
					out[name] = true
					changed = true
					break
				}
			}
		}
	}
	return out
}

// reachableFromRoots marks methods transitively invoked from the clocked
// cycle path (Eval/Commit/Step/Run…).
func reachableFromRoots(methods map[string]*methodFacts) map[string]bool {
	seen := map[string]bool{}
	var visit func(name string)
	visit = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		if mf, ok := methods[name]; ok {
			for callee := range mf.calls {
				visit(callee)
			}
		}
	}
	for name := range methods {
		if clockRootNames[name] {
			visit(name)
		}
	}
	return seen
}
