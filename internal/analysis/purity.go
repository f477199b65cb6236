package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// componentStatePackages names the internal packages whose concrete
// types carry per-component simulation state. A method call on one of
// their types from another package's Eval tree reaches into foreign
// component state, whatever the callee writes. Package link is
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
// their staged/registered split is the inter-component interface).
//
// The rule *proves* — over the interprocedural call graph, including
// interface dispatch — that every function reachable from any
// component's Eval, or from a telemetry streaming tap's Sink, writes
// only receiver-local (shard-local) state. It tracks writes through
// pointer parameters (a helper that scribbles on a *Router it was
// handed is charged to whoever handed it the pointer), captured
// closures, package-level variables, slice/map aliasing of all of the
// above, and CHA-resolved interface calls that land on another
// component's mutating method. A static method call on another
// component, or on a concrete type from another component-state
// package, is flagged whatever the callee writes: reading a neighbour
// mid-cycle races its Eval as surely as writing it.
//
// `//metrovet:shared <reason>` is the single audited escape hatch: on a
// line it clears that site; in a function's doc comment it declares the
// whole function audited (the analyzer treats it as pure and stops
// descending — the annotation is the proof obligation's boundary).
func EvalIsolation() *Analyzer {
	return &Analyzer{
		Name: "eval-isolation",
		Doc:  "prove, interprocedurally, that Eval-phase call trees (components and telemetry sinks) touch only their own state and link ends; annotate //metrovet:shared <reason> for co-located or serialized components",
		Run:  runEvalIsolation,
	}
}

// region abstracts where a write lands.
type region uint8

const (
	// regionLocal is function-local state: invisible outside the frame.
	regionLocal region = iota
	// regionUnknown is an unclassifiable base (a call result, a type
	// assertion); the analyzer stays silent rather than guess.
	regionUnknown
	// regionLink is link-package state: the sanctioned inter-component
	// interface (single staged writer per field, values move at Commit).
	regionLink
	// regionRecv is the function's own receiver — shard-local by the
	// engine's co-location guarantee.
	regionRecv
	// regionParam is state reached through a pointer-like parameter;
	// ownership is decided at each call site.
	regionParam
	// regionGlobal is a module package-level variable: shared across
	// every shard by construction.
	regionGlobal
	// regionForeign is another component's state.
	regionForeign
)

// regionRank orders regions for joins: when an alias could point at
// several regions, the most dangerous one wins.
var regionRank = [...]int{
	regionLocal:   0,
	regionUnknown: 1,
	regionLink:    2,
	regionRecv:    3,
	regionParam:   4,
	regionGlobal:  5,
	regionForeign: 6,
}

// base is a classified write/aliasing base: the region plus enough
// identity for diagnostics (the parameter index, the global's name, or
// the foreign component's type name).
type base struct {
	region region
	param  int
	name   string
}

func joinBase(a, b base) base {
	if regionRank[b.region] > regionRank[a.region] {
		return b
	}
	return a
}

// puritySummary is one function's interprocedural write effects.
type puritySummary struct {
	writesRecv   bool
	writesParams map[int]bool
	// shared marks a //metrovet:shared doc directive: the function is
	// audited, treated as pure, and not descended into.
	shared bool
}

// siteEffect is one write site with its classified base.
type siteEffect struct {
	pos  token.Pos
	base base
	// what describes the write for the finding message.
	what string
}

// callSite is one call expression with its resolved targets.
type callSite struct {
	call  *ast.CallExpr
	recvX ast.Expr // method selector receiver, nil for plain calls
	recv  base     // where recvX's callee-side receiver lives (classifyRecv)
	// static is the concrete type a method call binds to, nil for plain
	// calls, func-valued fields and interface dispatch.
	static  *types.Named
	selName string
	targets []CallEdge
}

// funcCtx is the per-function analysis state.
type funcCtx struct {
	node     *FuncNode
	p        *Package
	recvObj  types.Object
	ownRecv  string
	params   map[types.Object]int
	paramPtr map[int]bool
	aliases  map[types.Object]base
	writes   []siteEffect
	calls    []callSite
	sum      puritySummary
}

// purityAnalysis carries the whole-program fixpoint state.
type purityAnalysis struct {
	prog *Program
	cg   *CallGraph
	ctx  map[*FuncNode]*funcCtx
	// order fixes a deterministic iteration order for the fixpoint.
	order []*funcCtx
}

func runEvalIsolation(prog *Program) []Finding {
	an := &purityAnalysis{prog: prog, cg: prog.CallGraph(), ctx: map[*FuncNode]*funcCtx{}}
	an.prepare()
	an.fixpoint()
	return an.report()
}

// prepare builds the per-function contexts: alias tables, classified
// write sites, and resolved call sites, for every compiled function in
// an internal package.
func (an *purityAnalysis) prepare() {
	var keys []string
	for key, node := range an.prog.funcs {
		if !isInternal(node.Pkg.ImportPath) {
			continue
		}
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		node := an.prog.funcs[key]
		fc := &funcCtx{
			node:     node,
			p:        node.Pkg,
			ownRecv:  node.RecvName,
			params:   map[types.Object]int{},
			paramPtr: map[int]bool{},
			aliases:  map[types.Object]base{},
			sum:      puritySummary{writesParams: map[int]bool{}},
		}
		fd := node.Decl
		if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
			fc.recvObj = fc.p.ObjectOf(fd.Recv.List[0].Names[0])
		}
		idx := 0
		if fd.Type.Params != nil {
			for _, field := range fd.Type.Params.List {
				ptr := pointerLike(fc.p.TypeOf(field.Type))
				if len(field.Names) == 0 {
					idx++
					continue
				}
				for _, name := range field.Names {
					if obj := fc.p.ObjectOf(name); obj != nil {
						fc.params[obj] = idx
					}
					fc.paramPtr[idx] = ptr
					idx++
				}
			}
		}
		fc.sum.shared = docDirective(fd.Doc, "shared")
		an.ctx[node] = fc
		an.order = append(an.order, fc)
	}
	for _, fc := range an.order {
		fc.buildAliases()
		fc.collectEffects(an.cg)
		for _, w := range fc.writes {
			switch w.base.region {
			case regionRecv:
				fc.sum.writesRecv = true
			case regionParam:
				fc.sum.writesParams[w.base.param] = true
			case regionLocal, regionUnknown, regionLink, regionGlobal, regionForeign:
				// Locals and links carry no effect; globals and foreign
				// writes become findings directly in the report pass.
			}
		}
	}
}

// buildAliases runs the flow-insensitive alias pass to a fixpoint:
// every local picks up the worst base it is ever bound to, so writes
// through it are charged to that base. An assignment to a package-level
// variable binds nothing: the variable stays shared state.
func (fc *funcCtx) buildAliases() {
	body := fc.node.Decl.Body
	for range [8]struct{}{} {
		changed := false
		bind := func(name ast.Expr, rhs base) {
			id, ok := ast.Unparen(name).(*ast.Ident)
			if ok && id.Name != "_" {
				if obj := fc.p.ObjectOf(id); obj != nil {
					if _, isParam := fc.params[obj]; isParam || obj == fc.recvObj {
						return // params/receiver classify directly
					}
					if _, pkgVar := packageVar(fc.p, obj); pkgVar {
						return
					}
					next := joinBase(fc.aliases[obj], rhs)
					if next != fc.aliases[obj] {
						fc.aliases[obj] = next
						changed = true
					}
				}
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) == len(s.Rhs) {
					for i := range s.Lhs {
						bind(s.Lhs[i], fc.classify(s.Rhs[i]))
					}
				}
			case *ast.RangeStmt:
				if s.Value != nil {
					bind(s.Value, fc.classify(s.X))
				}
			case *ast.ValueSpec:
				if len(s.Names) == len(s.Values) {
					for i := range s.Names {
						bind(s.Names[i], fc.classify(s.Values[i]))
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
}

// collectEffects classifies every write site and resolves every call
// site in the function body (closures included: a function literal's
// writes and calls happen on behalf of its declarer).
func (fc *funcCtx) collectEffects(cg *CallGraph) {
	write := func(pos token.Pos, e ast.Expr, what string) {
		b := fc.classify(e)
		fc.writes = append(fc.writes, siteEffect{pos: pos, base: b, what: what})
	}
	ast.Inspect(fc.node.Decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				return true // new bindings handled by the alias pass
			}
			for _, lhs := range s.Lhs {
				if id, bare := ast.Unparen(lhs).(*ast.Ident); bare {
					if _, pkgVar := packageVar(fc.p, fc.p.ObjectOf(id)); !pkgVar {
						continue // rebinding a local is not a shared write
					}
				}
				write(lhs.Pos(), lhs, "write to")
			}
		case *ast.IncDecStmt:
			// A bare local counter++ classifies regionLocal and stays
			// silent; a bare package-level counter++ is a shared write.
			write(s.X.Pos(), s.X, "write to")
		case *ast.SendStmt:
			write(s.Chan.Pos(), s.Chan, "send on")
		case *ast.CallExpr:
			fun := ast.Unparen(s.Fun)
			if id, ok := fun.(*ast.Ident); ok && isBuiltin(fc.p, id) {
				switch id.Name {
				case "delete":
					if len(s.Args) > 0 {
						write(s.Args[0].Pos(), s.Args[0], "delete mutates")
					}
				case "copy", "append":
					if len(s.Args) > 0 {
						write(s.Args[0].Pos(), s.Args[0], id.Name+" writes through")
					}
				}
				return true
			}
			cs := callSite{call: s, targets: cg.callEdges(fc.p, s)}
			if sel, ok := fun.(*ast.SelectorExpr); ok {
				cs.selName = sel.Sel.Name
				if _, isPkg := pkgQualifier(fc.p, sel); !isPkg {
					cs.recvX = sel.X
					cs.recv = fc.classifyRecv(sel.X)
					cs.static = concreteRecv(fc.p, sel)
				}
			}
			fc.calls = append(fc.calls, cs)
		}
		return true
	})
}

// classify resolves an expression to the region its storage lives in,
// walking selector/index/star chains to the root and consulting the
// alias table for locals.
func (fc *funcCtx) classify(e ast.Expr) base {
	worst := base{region: regionLocal}
	for {
		e = ast.Unparen(e)
		switch ee := e.(type) {
		case *ast.SelectorExpr:
			// pkg.Var / pkg.Func roots resolve through the selection.
			if obj, isPkg := pkgQualifier(fc.p, ee); isPkg {
				return joinBase(worst, fc.classifyObj(obj))
			}
			t := fc.p.TypeOf(ee.X)
			if linkTyped(t) {
				return base{region: regionLink}
			}
			if named := componentNamed(t); named != nil && named.Obj().Name() != fc.ownRecv {
				worst = joinBase(worst, base{region: regionForeign, name: named.Obj().Name()})
			}
			e = ee.X
		case *ast.IndexExpr:
			e = ee.X
		case *ast.IndexListExpr:
			e = ee.X
		case *ast.StarExpr:
			e = ee.X
		case *ast.UnaryExpr:
			if ee.Op == token.AND {
				e = ee.X
				continue
			}
			return joinBase(worst, base{region: regionUnknown})
		case *ast.CallExpr:
			// append returns its first argument's backing store.
			if id, ok := ast.Unparen(ee.Fun).(*ast.Ident); ok && id.Name == "append" && isBuiltin(fc.p, id) && len(ee.Args) > 0 {
				e = ee.Args[0]
				continue
			}
			return joinBase(worst, base{region: regionUnknown})
		case *ast.Ident:
			return joinBase(worst, fc.classifyObj(fc.p.ObjectOf(ee)))
		case *ast.TypeAssertExpr:
			e = ee.X
		default:
			return joinBase(worst, base{region: regionUnknown})
		}
	}
}

// classifyRecv classifies a method call's receiver expression. classify
// judges the storage an expression names by the values its selector
// chain passes through, which is right for a write (c.other = nil
// writes c's own field); a call on c.other instead lands on whatever
// c.other is, so the expression's own static type counts too, unless
// it is a link, the sanctioned interface.
func (fc *funcCtx) classifyRecv(x ast.Expr) base {
	b := fc.classify(x)
	if named := componentNamed(fc.p.TypeOf(x)); named != nil && named.Obj().Name() != fc.ownRecv && !linkTyped(named) {
		b = joinBase(b, base{region: regionForeign, name: named.Obj().Name()})
	}
	return b
}

// concreteRecv returns the named type a method selection binds to
// statically, or nil for a func-valued field, an interface method or an
// unresolved selector.
func concreteRecv(p *Package, sel *ast.SelectorExpr) *types.Named {
	s := selectionOf(p, sel)
	if s == nil || s.Kind() == types.FieldVal || types.IsInterface(s.Recv()) {
		return nil
	}
	named := namedTypeOf(s.Recv())
	if named == nil || named.Obj().Pkg() == nil {
		return nil
	}
	return named
}

// classifyObj classifies a chain's root object.
func (fc *funcCtx) classifyObj(obj types.Object) base {
	if obj == nil {
		return base{region: regionUnknown}
	}
	if fc.recvObj != nil && obj == fc.recvObj {
		return base{region: regionRecv}
	}
	if i, ok := fc.params[obj]; ok {
		if fc.paramPtr[i] {
			return base{region: regionParam, param: i, name: obj.Name()}
		}
		return base{region: regionLocal}
	}
	if b, ok := fc.aliases[obj]; ok {
		return b
	}
	if b, ok := packageVar(fc.p, obj); ok {
		return b
	}
	if _, ok := obj.(*types.Var); !ok {
		return base{region: regionUnknown}
	}
	return base{region: regionLocal}
}

// packageVar classifies a package-level variable as seen from package
// p; ok is false for every other object. Only module packages are shared
// simulation state: stdlib vars (os.Stdout, ...) are out of scope, and
// link-package state is the sanctioned interface.
func packageVar(p *Package, obj types.Object) (b base, ok bool) {
	v, isVar := obj.(*types.Var)
	if !isVar || v.Parent() == nil || v.Parent().Parent() != types.Universe {
		return base{}, false
	}
	if v.Pkg() == nil {
		return base{region: regionUnknown}, true
	}
	path := strings.TrimSuffix(v.Pkg().Path(), "_test")
	switch {
	case internalName(path) == "link":
		return base{region: regionLink}, true
	case p.ImportPath == path || strings.HasPrefix(path, modulePrefix(p.ImportPath)):
		return base{region: regionGlobal, name: obj.Name()}, true
	}
	return base{region: regionUnknown}, true
}

// modulePrefix derives the module root prefix from an import path
// ("metro/internal/core" -> "metro/"). Fixture paths and real paths
// both start with the module name.
func modulePrefix(importPath string) string {
	if i := strings.IndexByte(importPath, '/'); i >= 0 {
		return importPath[:i+1]
	}
	return importPath
}

// pkgQualifier reports whether sel is a package-qualified reference
// (pkg.Name) and resolves the named object if so.
func pkgQualifier(p *Package, sel *ast.SelectorExpr) (types.Object, bool) {
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil, false
	}
	if _, isPkg := p.PkgNameOf(id); !isPkg {
		return nil, false
	}
	return p.ObjectOf(sel.Sel), true
}

// pointerLike reports whether a parameter of type t lets the callee
// reach the caller's storage: pointers, slices, maps and channels do;
// value copies (basics, structs, arrays) and interfaces/funcs (whose
// dynamic targets the per-callee analysis covers) do not.
func pointerLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
		return true
	}
	return false
}

// linkTyped reports whether t is (a pointer to) a named type declared
// in internal/link.
func linkTyped(t types.Type) bool {
	named := namedTypeOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return internalName(named.Obj().Pkg().Path()) == "link"
}

// fixpoint propagates write effects across call sites until summaries
// stabilize: a helper that writes through its pointer parameter makes
// its caller a receiver-writer when the caller passes receiver state,
// and a parameter-writer when it forwards its own parameter.
func (an *purityAnalysis) fixpoint() {
	for {
		changed := false
		for _, fc := range an.order {
			if fc.sum.shared {
				continue
			}
			for _, cs := range fc.calls {
				for _, e := range cs.targets {
					callee := an.ctx[e.Callee]
					if callee == nil || callee.sum.shared {
						continue
					}
					if callee.sum.writesRecv && cs.recvX != nil {
						if fc.absorb(cs.recv) {
							changed = true
						}
					}
					for i := range callee.sum.writesParams {
						if arg := argForParam(cs.call, callee, i); arg != nil {
							if fc.absorb(fc.classify(arg)) {
								changed = true
							}
						}
					}
				}
			}
		}
		if !changed {
			return
		}
	}
}

// absorb folds a callee-propagated write base into the summary,
// reporting whether the summary grew. Global and foreign bases become
// findings in the report pass, not summary effects.
func (fc *funcCtx) absorb(b base) bool {
	switch b.region {
	case regionRecv:
		if !fc.sum.writesRecv {
			fc.sum.writesRecv = true
			return true
		}
	case regionParam:
		if !fc.sum.writesParams[b.param] {
			fc.sum.writesParams[b.param] = true
			return true
		}
	case regionLocal, regionUnknown, regionLink, regionGlobal, regionForeign:
		// No summary effect.
	}
	return false
}

// argForParam maps a callee parameter index back to the caller's
// argument expression, tolerating variadics and mismatched arity.
func argForParam(call *ast.CallExpr, callee *funcCtx, i int) ast.Expr {
	if i < len(call.Args) {
		return call.Args[i]
	}
	return nil
}

// isolationRoots collects the Eval methods of component-shaped types
// plus the Sink methods of streaming taps, from every internal non-link
// package, sorted for deterministic first-root attribution. (Commit
// latches a component's own registers; the isolation contract is about
// Eval. A Sink with the Recorder streaming-tap shape consumes drained
// event batches on the engine's flushing goroutine: it observes a run in
// flight, so its call tree is held to the same observe-only contract.
// telemetry.MetricsSink is the canonical instance.)
func isolationRoots(prog *Program) []RootedNode {
	keep := func(p *Package) bool {
		return isInternal(p.ImportPath) && internalName(p.ImportPath) != "link"
	}
	roots := componentRoots(prog, keep, "Eval")
	for _, node := range prog.funcs {
		if node.RecvName == "" || node.Decl.Name.Name != "Sink" || !keep(node.Pkg) || !sinkShape(node.Decl) {
			continue
		}
		roots = append(roots, RootedNode{
			Node: node,
			Root: fmt.Sprintf("(%s.%s).Sink", pkgLabel(node.Pkg), node.RecvName),
			Type: node.RecvName,
			Kind: "sink",
		})
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

// report walks every function reachable from a root and emits the
// surviving findings.
func (an *purityAnalysis) report() []Finding {
	reached := an.cg.Reachable(isolationRoots(an.prog), func(e CallEdge) bool {
		callee := an.ctx[e.Callee]
		return callee == nil || !callee.sum.shared
	})
	nodes := reachedNodes(reached)

	var out []Finding
	emitted := map[string]bool{}
	emit := func(fc *funcCtx, pos token.Pos, ri RootInfo, what string) {
		position := fc.p.Fset.Position(pos)
		if fc.p.suppressed("eval-isolation", "shared", position) {
			return
		}
		via := ""
		if ri.Via != "" {
			via = fmt.Sprintf(" via %s", ri.Via)
		}
		contract := "a sharded component may touch only its own state and link ends"
		if ri.Kind == "sink" {
			contract = "a telemetry sink observes the simulation and may write only its own buffers"
		}
		msg := fmt.Sprintf("%s (reachable from %s%s); %s — annotate //metrovet:shared <reason> if co-located or serialized",
			what, ri.Root, via, contract)
		key := fmt.Sprintf("%s:%d:%s", position.Filename, position.Line, msg)
		if emitted[key] {
			return
		}
		emitted[key] = true
		out = append(out, Finding{Pos: position, Rule: "eval-isolation", Msg: msg})
	}

	for _, node := range nodes {
		fc := an.ctx[node]
		if fc == nil || fc.sum.shared || internalName(fc.p.ImportPath) == "link" {
			continue
		}
		ri := reached[node]
		for _, w := range fc.writes {
			switch w.base.region {
			case regionGlobal:
				emit(fc, w.pos, ri, fmt.Sprintf("%s package-level state %s", w.what, w.base.name))
			case regionForeign:
				if w.base.name != ri.Type {
					emit(fc, w.pos, ri, fmt.Sprintf("%s state of component type %s", w.what, w.base.name))
				}
			case regionLocal, regionUnknown, regionLink, regionRecv, regionParam:
				// Local, sanctioned, own, or charged at call sites.
			}
		}
		for _, cs := range fc.calls {
			an.reportCall(fc, cs, ri, emit)
		}
	}
	SortFindings(out)
	return out
}

// reportCall emits findings for one call site: a static method call on
// another component, read-only or not; an interface call that may
// dispatch to another component's mutating method; and shared state
// handed to parameter-writing callees.
func (an *purityAnalysis) reportCall(fc *funcCtx, cs callSite, ri RootInfo, emit func(*funcCtx, token.Pos, RootInfo, string)) {
	if cs.static != nil {
		if cs.recv.region == regionForeign && cs.recv.name != ri.Type {
			emit(fc, cs.call.Pos(), ri, fmt.Sprintf("call to (%s).%s, another component", cs.recv.name, cs.selName))
		} else if path := cs.static.Obj().Pkg().Path(); path != fc.p.ImportPath && componentStatePackages[internalName(path)] {
			emit(fc, cs.call.Pos(), ri, fmt.Sprintf("call to (%s.%s).%s, component state in another package",
				internalName(path), cs.static.Obj().Name(), cs.selName))
		}
	}
	for _, e := range cs.targets {
		callee := an.ctx[e.Callee]
		if callee == nil || callee.sum.shared {
			continue
		}
		if e.Kind == EdgeIface && callee.sum.writesRecv && e.IfaceRecv != nil &&
			isComponentShaped(e.IfaceRecv) && e.IfaceRecv.Obj().Name() != ri.Type {
			emit(fc, cs.call.Pos(), ri, fmt.Sprintf("call through %s may dispatch to (%s).%s, which mutates that component's state",
				e.IfaceName, e.IfaceRecv.Obj().Name(), cs.selName))
		}
		for i := range callee.sum.writesParams {
			arg := argForParam(cs.call, callee, i)
			if arg == nil {
				continue
			}
			b := fc.classify(arg)
			switch b.region {
			case regionGlobal:
				emit(fc, arg.Pos(), ri, fmt.Sprintf("passes package-level state %s to %s, which writes through it", b.name, e.Callee))
			case regionForeign:
				if b.name != ri.Type {
					emit(fc, arg.Pos(), ri, fmt.Sprintf("passes component %s state to %s, which writes through it", b.name, e.Callee))
				}
			case regionLocal, regionUnknown, regionLink, regionRecv, regionParam:
				// Shard-local or charged elsewhere.
			}
		}
	}
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

// isComponentShaped reports whether *T is clocked: it declares
// clock.Component's Eval(uint64) or clock.Latch's Commit(uint64).
func isComponentShaped(named *types.Named) bool {
	ptr := types.NewPointer(named)
	for _, name := range []string{"Eval", "Commit"} {
		m, _, _ := types.LookupFieldOrMethod(ptr, false, named.Obj().Pkg(), name)
		fn, ok := m.(*types.Func)
		if !ok {
			continue
		}
		sig := fn.Type().(*types.Signature)
		if sig.Params().Len() != 1 || sig.Results().Len() != 0 {
			continue
		}
		if b, ok := sig.Params().At(0).Type().(*types.Basic); ok && b.Kind() == types.Uint64 {
			return true
		}
	}
	return false
}
