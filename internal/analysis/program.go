package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Program is the whole-program view the interprocedural analyzers work
// on: every loaded package plus an index of all compiled function
// declarations. Every analyzer runs on the Program; the whole-program
// ones (hot-path-alloc, eval-isolation and the value rules) use it all,
// so an Eval that calls an allocating or impure helper three packages
// away is still on the hook.
//
// Functions are indexed by a path-based key, not by types.Object
// identity: the loader type-checks a package's compiled files once as
// the import surface and once more together with its in-package test
// files, so the "same" function is represented by two distinct objects
// depending on which side of an import a reference sits. Keying on
// (package path, receiver type, name) makes both resolve to one node.
type Program struct {
	Packages []*Package // sorted by import path

	byPath map[string]*Package
	funcs  map[string]*FuncNode
	// named collects every named type declared in the compiled files of
	// the loaded packages, for CHA interface resolution.
	named []*types.Named
	// cg caches the call graph so the whole-program analyzers share one
	// build per tree.
	cg *CallGraph
	// vr caches the pass the truncating-conversion and width-contract
	// rules share.
	vr *valueRange
}

// CallGraph returns the program's call graph, building it on first use.
func (prog *Program) CallGraph() *CallGraph {
	if prog.cg == nil {
		prog.cg = BuildCallGraph(prog)
	}
	return prog.cg
}

// FuncNode is one compiled function or method declaration.
type FuncNode struct {
	Key  string // "pkgpath.Recv.Name" or "pkgpath.Name"
	Decl *ast.FuncDecl
	Pkg  *Package
	// RecvName is the receiver's named type ("" for plain functions).
	RecvName string
}

// NewProgram indexes the given packages. The same package list always
// produces the same index order.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		byPath: map[string]*Package{},
		funcs:  map[string]*FuncNode{},
	}
	prog.Packages = append(prog.Packages, pkgs...)
	sort.Slice(prog.Packages, func(i, j int) bool {
		return prog.Packages[i].ImportPath < prog.Packages[j].ImportPath
	})
	seenNamed := map[*types.TypeName]bool{}
	for _, p := range prog.Packages {
		prog.byPath[p.ImportPath] = p
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				key := declKey(p, fd)
				if key == "" {
					continue
				}
				if _, dup := prog.funcs[key]; !dup {
					prog.funcs[key] = &FuncNode{Key: key, Decl: fd, Pkg: p, RecvName: recvNameOf(fd)}
				}
			}
		}
		// Collect named types from the base (import-surface) scope: the
		// analyzers only ever dispatch CHA edges onto compiled types.
		if p.Types == nil {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || seenNamed[tn] {
				continue
			}
			seenNamed[tn] = true
			if named, ok := tn.Type().(*types.Named); ok {
				prog.named = append(prog.named, named)
			}
		}
	}
	return prog
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

// recvNameOf is recvTypeName tolerant of plain functions.
func recvNameOf(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return ""
	}
	return recvTypeName(fd)
}

// declKey builds the index key for a declaration in package p.
func declKey(p *Package, fd *ast.FuncDecl) string {
	name := fd.Name.Name
	if recv := recvNameOf(fd); recv != "" {
		return p.ImportPath + "." + recv + "." + name
	}
	if fd.Recv != nil {
		return "" // malformed receiver; nothing can call it by key
	}
	return p.ImportPath + "." + name
}

// funcObjKey builds the same key from a resolved function object, so a
// call site in any check unit maps to the declaration's node. Returns
// "" for objects that cannot be indexed (builtins, interface methods —
// those take the CHA path — and functions outside the program).
func (prog *Program) funcObjKey(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	path := strings.TrimSuffix(pkg.Path(), "_test")
	if prog.byPath[path] == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		named := namedTypeOf(recv.Type())
		if named == nil {
			// Interface-method object or unnamed receiver: not a
			// concrete declaration.
			return ""
		}
		return path + "." + named.Obj().Name() + "." + fn.Name()
	}
	return path + "." + fn.Name()
}

// nodeFor resolves a function object to its compiled declaration, or
// nil when the body is outside the program (stdlib, test files,
// interface methods).
func (prog *Program) nodeFor(fn *types.Func) *FuncNode {
	key := prog.funcObjKey(fn)
	if key == "" {
		return nil
	}
	return prog.funcs[key]
}

// implementersOf returns the named types declared in internal packages
// of the program whose pointer method set satisfies iface, sorted by
// (package path, type name) for deterministic edge order. CHA
// deliberately stops at the model boundary: an example program's type
// may satisfy clock.Component or clock.Kernel too, but it is not part of
// the sharded simulation the purity rules protect (and the zero-alloc
// benchmarks gate the real configurations at runtime).
func (prog *Program) implementersOf(iface *types.Interface) []*types.Named {
	if iface == nil || iface.Empty() {
		return nil
	}
	var out []*types.Named
	for _, named := range prog.named {
		obj := named.Obj()
		if obj.Pkg() == nil || !isInternal(obj.Pkg().Path()) {
			continue
		}
		if types.IsInterface(named) {
			continue
		}
		if types.Implements(types.NewPointer(named), iface) || types.Implements(named, iface) {
			out = append(out, named)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Obj(), out[j].Obj()
		if a.Pkg().Path() != b.Pkg().Path() {
			return a.Pkg().Path() < b.Pkg().Path()
		}
		return a.Name() < b.Name()
	})
	return out
}

// methodNodeOf resolves named's method (or promoted method) by name to
// its compiled declaration, or nil.
func (prog *Program) methodNodeOf(named *types.Named, name string) *FuncNode {
	ms := types.NewMethodSet(types.NewPointer(named))
	var sel *types.Selection
	if s := ms.Lookup(named.Obj().Pkg(), name); s != nil {
		sel = s
	} else if s := ms.Lookup(nil, name); s != nil {
		sel = s
	}
	if sel == nil {
		return nil
	}
	fn, ok := sel.Obj().(*types.Func)
	if !ok {
		return nil
	}
	return prog.nodeFor(fn)
}

// componentRoots collects the given methods of every component-shaped
// type in the program as reachability roots, labeled "(pkg.Type).Method"
// and sorted by label for deterministic first-root attribution. Packages
// for which keep returns false are skipped (nil keeps everything).
func componentRoots(prog *Program, keep func(*Package) bool, methods ...string) []RootedNode {
	var roots []RootedNode
	for _, p := range prog.Packages {
		if p.Types == nil || (keep != nil && !keep(p)) {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || !isComponentShaped(named) {
				continue
			}
			for _, m := range methods {
				node := prog.methodNodeOf(named, m)
				if node == nil {
					continue
				}
				roots = append(roots, RootedNode{
					Node: node,
					Root: fmt.Sprintf("(%s.%s).%s", pkgLabel(p), name, m),
					Type: name,
					Kind: "component",
				})
			}
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Root < roots[j].Root })
	return roots
}

// pkgLabel is the short package name used in finding messages: the
// internal/ segment when there is one, else the package name.
func pkgLabel(p *Package) string {
	if n := internalName(p.ImportPath); n != "" {
		return n
	}
	if p.Types != nil {
		return p.Types.Name()
	}
	return p.ImportPath
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

// componentNamed reports whether t (after unwrapping pointers) is a
// component-shaped named type: one declaring Eval or Commit.
func componentNamed(t types.Type) *types.Named {
	named := namedTypeOf(t)
	if named == nil || !isComponentShaped(named) {
		return nil
	}
	return named
}

// String renders a short description for debugging and tests.
func (n *FuncNode) String() string {
	if n.RecvName != "" {
		return fmt.Sprintf("(%s.%s).%s", n.Pkg.ImportPath, n.RecvName, n.Decl.Name.Name)
	}
	return fmt.Sprintf("%s.%s", n.Pkg.ImportPath, n.Decl.Name.Name)
}
