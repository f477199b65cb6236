package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"path"
	"sort"
	"strings"
)

// This file implements the state-machine extraction pass: it recovers the
// protocol state machines (the Section 5 forward-port protocol, the IEEE
// 1149.1 TAP, the NIC send/receive engines) from the switch/assignment
// structure of the model code and renders each as a sorted transition
// table. The tables are checked in under docs/statemachines/ and
// golden-diffed in CI: any code change that alters protocol behaviour
// fails with a readable table diff instead of a mystery regression three
// packages away.
//
// The extraction is deliberately syntactic. It understands the idioms the
// model actually uses — switches over the state field, direct assignments
// of state constants, struct resets via composite literals (an absent
// state field is the zero-valued constant), state constants threaded
// through single-level helper calls (`r.flip(cycle, fp, fpReversed)`),
// and `return <const>` in functions returning the state type — and makes
// no attempt at general data-flow analysis. A write it cannot resolve to
// a constant contributes no transition; a write outside any switch over
// the machine's state is recorded with from-state "*".

// MachineSpec names one state machine to extract: the loader pattern of
// the defining package and the enum type name within it.
type MachineSpec struct {
	Pattern string // e.g. "./internal/core"
	Type    string // e.g. "fpState"
}

// Label returns the display name ("core.fpState").
func (s MachineSpec) Label() string {
	return path.Base(strings.TrimSuffix(s.Pattern, "/...")) + "." + s.Type
}

// FileName returns the golden-table file name under docs/statemachines/.
func (s MachineSpec) FileName() string { return s.Label() + ".txt" }

// DefaultMachines lists the protocol machines with checked-in golden
// tables. The NIC parser's pPhase is deliberately absent: it is a framing
// scanner over a reply stream, not a protocol agent.
func DefaultMachines() []MachineSpec {
	return []MachineSpec{
		{Pattern: "./internal/core", Type: "fpState"},
		{Pattern: "./internal/scan", Type: "State"},
		{Pattern: "./internal/nic", Type: "sState"},
		{Pattern: "./internal/nic", Type: "rState"},
	}
}

// Transition is one extracted edge: in From, under Guard, the code in Via
// moves the machine to Next. From is "*" for writes outside any switch
// over the machine's state; Guard is the conjunction of the enclosing
// conditions, empty when unconditional.
type Transition struct {
	From  string
	Guard string
	Next  string
	Via   string
}

// Machine is one extracted state machine.
type Machine struct {
	Label       string
	ImportPath  string
	States      []string // declared constants in value order (aliases dropped)
	Transitions []Transition
}

// ExtractMachine recovers the state machine of the named enum type from
// package p's compiled files.
func ExtractMachine(p *Package, typeName string) (*Machine, error) {
	if p.Types == nil || p.Info == nil {
		return nil, fmt.Errorf("analysis: %s: no type information", p.ImportPath)
	}
	// Resolve the type through Info, not p.Types: when the package has
	// in-package tests, Info is a separate check unit whose objects are
	// what TypeOf returns for expressions — mixing units would make every
	// types.Identical comparison fail.
	var tn *types.TypeName
	for _, obj := range p.Info.Defs {
		t, ok := obj.(*types.TypeName)
		if ok && t.Name() == typeName && t.Pkg() != nil && t.Parent() == t.Pkg().Scope() {
			tn = t
			break
		}
	}
	if tn == nil {
		return nil, fmt.Errorf("analysis: %s: no type %s", p.ImportPath, typeName)
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil, fmt.Errorf("analysis: %s.%s: not a defined type", p.ImportPath, typeName)
	}
	consts := enumConstants(tn.Pkg(), named)
	if len(consts) < 2 {
		return nil, fmt.Errorf("analysis: %s.%s: not an enum (fewer than 2 constants)", p.ImportPath, typeName)
	}
	w := &smWalker{
		p:       p,
		named:   named,
		nameFor: map[string]string{},
		funcs:   map[types.Object]*ast.FuncDecl{},
		called:  map[*ast.FuncDecl]bool{},
		out:     map[Transition]bool{},
	}
	for _, c := range consts {
		key := c.Val().ExactString()
		if _, dup := w.nameFor[key]; !dup {
			w.nameFor[key] = c.Name()
			w.states = append(w.states, c.Name())
		}
	}
	var decls []*ast.FuncDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			decls = append(decls, fd)
			if obj := p.ObjectOf(fd.Name); obj != nil {
				w.funcs[obj] = fd
			}
		}
	}
	// Pass 1: find every function invoked as a statement (discarding any
	// results); those are walked inline from their callers, with the
	// caller's state context, rather than as roots of their own.
	for _, fd := range decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			if callee := w.calleeDecl(es.X); callee != nil {
				w.called[callee] = true
			}
			return true
		})
	}
	// Pass 2: walk each root. Functions used in value position (such as
	// scan's State.Next, called as `t.state = t.state.Next(tms)`) remain
	// roots, which is what lets their return statements carry the table.
	for _, fd := range decls {
		if w.called[fd] {
			continue
		}
		w.walkFunc(fd, smCtx{via: funcDisplayName(fd), visiting: map[*ast.FuncDecl]bool{fd: true}})
	}
	m := &Machine{ImportPath: p.ImportPath, States: w.states}
	for t := range w.out {
		m.Transitions = append(m.Transitions, t)
	}
	m.sortTransitions()
	return m, nil
}

// smCtx is the walk context: the possible current states (nil = unknown,
// rendered "*"), the accumulated guard conjunction, the function whose
// body is being walked, constant bindings for its state-typed parameters,
// and the inlining chain (recursion guard).
type smCtx struct {
	froms    []string
	guards   []string
	via      string
	args     map[types.Object]string
	visiting map[*ast.FuncDecl]bool
}

func (c smCtx) withGuard(g string) smCtx {
	c.guards = append(append([]string{}, c.guards...), g)
	return c
}

func (c smCtx) withFroms(froms []string) smCtx {
	c.froms = froms
	return c
}

type smWalker struct {
	p       *Package
	named   *types.Named
	nameFor map[string]string // constant value -> canonical name
	states  []string
	funcs   map[types.Object]*ast.FuncDecl
	called  map[*ast.FuncDecl]bool
	out     map[Transition]bool

	results []bool // per result position of the function being walked: is machine-typed
}

// calleeDecl resolves an expression statement's call to a same-package
// function declaration, or nil.
func (w *smWalker) calleeDecl(x ast.Expr) *ast.FuncDecl {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return nil
	}
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = w.p.ObjectOf(fun)
	case *ast.SelectorExpr:
		obj = w.p.ObjectOf(fun.Sel)
	}
	return w.funcs[obj]
}

func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		if r := recvTypeName(fd); r != "" {
			return r + "." + fd.Name.Name
		}
	}
	return fd.Name.Name
}

func (w *smWalker) walkFunc(fd *ast.FuncDecl, c smCtx) {
	// Record which result positions carry the machine type so return
	// statements can contribute transitions.
	saved := w.results
	w.results = nil
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			isM := types.Identical(w.p.TypeOf(field.Type), w.named)
			n := len(field.Names)
			if n == 0 {
				n = 1
			}
			for i := 0; i < n; i++ {
				w.results = append(w.results, isM)
			}
		}
	}
	w.walkStmt(fd.Body, c)
	w.results = saved
}

func (w *smWalker) walkStmt(s ast.Stmt, c smCtx) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		for _, sub := range st.List {
			w.walkStmt(sub, c)
		}
	case *ast.LabeledStmt:
		w.walkStmt(st.Stmt, c)
	case *ast.IfStmt:
		if st.Init != nil {
			w.walkStmt(st.Init, c)
		}
		cond := types.ExprString(st.Cond)
		w.walkStmt(st.Body, c.withGuard(cond))
		if st.Else != nil {
			w.walkStmt(st.Else, c.withGuard("!("+cond+")"))
		}
	case *ast.ForStmt:
		if st.Init != nil {
			w.walkStmt(st.Init, c)
		}
		w.walkStmt(st.Body, c)
	case *ast.RangeStmt:
		w.walkStmt(st.Body, c)
	case *ast.SwitchStmt:
		w.walkSwitch(st, c)
	case *ast.TypeSwitchStmt:
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				for _, sub := range cc.Body {
					w.walkStmt(sub, c)
				}
			}
		}
	case *ast.AssignStmt:
		w.walkAssign(st, c)
	case *ast.ReturnStmt:
		for i, res := range st.Results {
			if i < len(w.results) && w.results[i] {
				if next, ok := w.resolveState(res, c); ok {
					w.record(c, next)
				}
			}
		}
	case *ast.ExprStmt:
		if callee := w.calleeDecl(st.X); callee != nil && !c.visiting[callee] {
			call := ast.Unparen(st.X).(*ast.CallExpr)
			w.inlineCall(call, callee, c)
		}
	}
}

// inlineCall walks a statement-called same-package function with the
// caller's state context, binding state-typed parameters to the constant
// arguments at this call site (`r.flip(cycle, fp, fpReversed)` binds `to`
// to fpReversed).
func (w *smWalker) inlineCall(call *ast.CallExpr, callee *ast.FuncDecl, c smCtx) {
	args := map[types.Object]string{}
	if callee.Type.Params != nil {
		i := 0
		for _, field := range callee.Type.Params.List {
			n := len(field.Names)
			if n == 0 {
				n = 1
			}
			for j := 0; j < n; j++ {
				if i < len(call.Args) && types.Identical(w.p.TypeOf(field.Type), w.named) {
					if name, ok := w.resolveState(call.Args[i], c); ok && j < len(field.Names) {
						if obj := w.p.ObjectOf(field.Names[j]); obj != nil {
							args[obj] = name
						}
					}
				}
				i++
			}
		}
	}
	visiting := map[*ast.FuncDecl]bool{callee: true}
	for fd := range c.visiting {
		visiting[fd] = true
	}
	w.walkFunc(callee, smCtx{
		froms:    c.froms,
		guards:   c.guards,
		via:      funcDisplayName(callee),
		args:     args,
		visiting: visiting,
	})
}

// walkSwitch dispatches on the switch's relationship to the machine: a
// switch over the state itself re-keys the from-state context; any other
// switch contributes its case conditions as guards.
func (w *smWalker) walkSwitch(sw *ast.SwitchStmt, c smCtx) {
	if sw.Init != nil {
		w.walkStmt(sw.Init, c)
	}
	if sw.Tag != nil && types.Identical(w.p.TypeOf(sw.Tag), w.named) {
		if w.walkStateSwitch(sw, c) {
			return
		}
	}
	tag := ""
	if sw.Tag != nil {
		tag = types.ExprString(sw.Tag)
	}
	for _, cl := range sw.Body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		sub := c.withGuard(caseGuard(tag, cc))
		for _, stmt := range cc.Body {
			w.walkStmt(stmt, sub)
		}
	}
}

// caseGuard renders one case clause of a non-state switch as a guard.
func caseGuard(tag string, cc *ast.CaseClause) string {
	if cc.List == nil {
		if tag == "" {
			return "otherwise"
		}
		return tag + " otherwise"
	}
	rendered := make([]string, len(cc.List))
	for i, e := range cc.List {
		rendered[i] = types.ExprString(e)
	}
	if tag == "" {
		return strings.Join(rendered, " || ")
	}
	if len(rendered) == 1 {
		return tag + " == " + rendered[0]
	}
	return tag + " in {" + strings.Join(rendered, ", ") + "}"
}

// walkStateSwitch handles a switch over the machine's state, narrowing
// the from-state context per case arm. It reports false (fall back to
// guard rendering) when a case expression does not resolve to a constant.
func (w *smWalker) walkStateSwitch(sw *ast.SwitchStmt, c smCtx) bool {
	handled := map[string]bool{}
	type arm struct {
		cc    *ast.CaseClause
		froms []string
	}
	var arms []arm
	var def *ast.CaseClause
	for _, cl := range sw.Body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			def = cc
			continue
		}
		var froms []string
		for _, e := range cc.List {
			name, ok := w.resolveState(e, c)
			if !ok {
				return false
			}
			froms = append(froms, name)
			handled[name] = true
		}
		arms = append(arms, arm{cc, froms})
	}
	for _, a := range arms {
		sub := c.withFroms(a.froms)
		for _, stmt := range a.cc.Body {
			w.walkStmt(stmt, sub)
		}
	}
	if def != nil {
		var rest []string
		for _, s := range w.states {
			if !handled[s] {
				rest = append(rest, s)
			}
		}
		// A default arm with every state named is an out-of-band guard;
		// nothing in it is a protocol transition.
		if len(rest) > 0 {
			sub := c.withFroms(rest)
			for _, stmt := range def.Body {
				w.walkStmt(stmt, sub)
			}
		}
	}
	return true
}

// walkAssign records state writes: direct assignment of a resolvable
// state value to a state-typed location, and whole-struct resets via
// composite literals (where an absent state field means the zero-valued
// constant). Function literals on the right-hand side are walked with a
// fresh context: when they run is unknown.
func (w *smWalker) walkAssign(st *ast.AssignStmt, c smCtx) {
	if len(st.Lhs) == len(st.Rhs) {
		for i, lhs := range st.Lhs {
			lt := w.p.TypeOf(lhs)
			if lt == nil {
				continue
			}
			if types.Identical(lt, w.named) {
				if next, ok := w.resolveState(st.Rhs[i], c); ok {
					w.record(c, next)
				}
				continue
			}
			if cl, ok := ast.Unparen(st.Rhs[i]).(*ast.CompositeLit); ok {
				if next, ok := w.compositeState(lt, cl, c); ok {
					w.record(c, next)
				}
			}
		}
	}
	for _, rhs := range st.Rhs {
		if fl, ok := ast.Unparen(rhs).(*ast.FuncLit); ok {
			w.walkStmt(fl.Body, smCtx{via: c.via + ".func", visiting: c.visiting})
		}
	}
}

// compositeState resolves the machine-typed field of a struct composite
// literal assigned over a struct that has one ("*p = fwdPort{state: X}"
// or a full reset where the absent field is the zero state).
func (w *smWalker) compositeState(lt types.Type, cl *ast.CompositeLit, c smCtx) (string, bool) {
	strct, ok := lt.Underlying().(*types.Struct)
	if !ok {
		return "", false
	}
	field := ""
	for i := 0; i < strct.NumFields(); i++ {
		if types.Identical(strct.Field(i).Type(), w.named) {
			field = strct.Field(i).Name()
			break
		}
	}
	if field == "" {
		return "", false
	}
	for _, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			return "", false // positional literal: out of scope
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == field {
			return w.resolveState(kv.Value, c)
		}
	}
	// State field absent: the zero-valued constant.
	name, ok := w.nameFor["0"]
	return name, ok
}

// resolveState resolves an expression to a state-constant name: a typed
// constant of the machine's type (by value, so aliases canonicalize) or a
// parameter bound to one at the current call site.
func (w *smWalker) resolveState(e ast.Expr, c smCtx) (string, bool) {
	if v := constValueOf(w.p, e); v != nil {
		if types.Identical(w.p.TypeOf(e), w.named) {
			name, ok := w.nameFor[v.ExactString()]
			return name, ok
		}
		return "", false
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok && c.args != nil {
		if name, ok := c.args[w.p.ObjectOf(id)]; ok {
			return name, true
		}
	}
	return "", false
}

func (w *smWalker) record(c smCtx, next string) {
	froms := c.froms
	if froms == nil {
		froms = []string{"*"}
	}
	guard := strings.Join(c.guards, " && ")
	for _, f := range froms {
		w.out[Transition{From: f, Guard: guard, Next: next, Via: c.via}] = true
	}
}

func (m *Machine) sortTransitions() {
	idx := map[string]int{"*": len(m.States)}
	for i, s := range m.States {
		idx[s] = i
	}
	sort.Slice(m.Transitions, func(i, j int) bool {
		a, b := m.Transitions[i], m.Transitions[j]
		if idx[a.From] != idx[b.From] {
			return idx[a.From] < idx[b.From]
		}
		if idx[a.Next] != idx[b.Next] {
			return idx[a.Next] < idx[b.Next]
		}
		if a.Via != b.Via {
			return a.Via < b.Via
		}
		return a.Guard < b.Guard
	})
}

// Render produces the golden-table text form: a header, the state
// alphabet, and one aligned "from | guard | next | via" line per
// transition, sorted for stable diffs.
func (m *Machine) Render(label string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# metrovet state machine: %s (package %s)\n", label, m.ImportPath)
	b.WriteString("# Regenerate: go test ./internal/analysis -run TestStateMachinesMatchGolden -update\n")
	b.WriteString("# Format: from-state | guard | next-state | via. \"*\" = write outside\n")
	b.WriteString("# any switch over the machine's state; empty guard = unconditional.\n")
	b.WriteString("\n")
	fmt.Fprintf(&b, "states: %s\n\n", strings.Join(m.States, " "))
	wFrom, wGuard, wNext := 0, 0, 0
	for _, t := range m.Transitions {
		wFrom = max(wFrom, len(t.From))
		wGuard = max(wGuard, len(t.Guard))
		wNext = max(wNext, len(t.Next))
	}
	for _, t := range m.Transitions {
		fmt.Fprintf(&b, "%-*s | %-*s | %-*s | %s\n", wFrom, t.From, wGuard, t.Guard, wNext, t.Next, t.Via)
	}
	return b.String()
}

// DiffTables compares a checked-in golden table against a freshly
// extracted one, returning human-readable line diffs (nil when equal).
func DiffTables(want, got string) []string {
	if want == got {
		return nil
	}
	wl := strings.Split(strings.TrimRight(want, "\n"), "\n")
	gl := strings.Split(strings.TrimRight(got, "\n"), "\n")
	wantSet := map[string]bool{}
	for _, l := range wl {
		wantSet[l] = true
	}
	gotSet := map[string]bool{}
	for _, l := range gl {
		gotSet[l] = true
	}
	var out []string
	for _, l := range wl {
		if !gotSet[l] {
			out = append(out, "- "+l)
		}
	}
	for _, l := range gl {
		if !wantSet[l] {
			out = append(out, "+ "+l)
		}
	}
	if len(out) == 0 {
		out = append(out, "(line order differs)")
	}
	return out
}
