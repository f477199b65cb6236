package analysis

// Value-range analysis and the two rules built on it:
//
//	truncating-conversion (MV010) — a narrowing integer conversion in
//	    Eval/Commit-reachable code must be proven lossless.
//	width-contract (MV012) — width arguments at internal/word call
//	    sites proven within [1, 32], and every shift amount proven
//	    below the shifted operand's bit width.
//
// Index bounds are not this analysis's business: the compiler's own
// prover behind the -bce gate covers them (docs/ANALYZERS.md).
//
// The analysis runs the AbsVal transfer functions (interval.go) over the
// bodies of every function reachable from the clock.Component Eval/Commit
// roots on the call graph, one function at a time and flow-sensitively:
// assignments update an abstract environment, branch conditions refine
// it on each arm, and loops run to a small local fixpoint with widening.
// The call graph only selects which bodies are checked; nothing flows
// across a call. Parameters, call results and lengths of slices read as
// the full range of their type, so a proof never depends on who calls
// the function.
//
// Documented concessions (see docs/ANALYZERS.md): field-path value facts
// are dropped at every call; functions using goto or labeled branches
// degrade to flow-insensitive evaluation. On either the analysis loses
// precision, never soundness of what it does claim.

import (
	"go/ast"
	"go/token"
	"math"
	"strings"
)

// TruncatingConversion returns the truncating-conversion analyzer: METRO's
// packed word format (masks, shifts, per-width checksums) makes silent
// integer truncation a real hazard, so every narrowing conversion on the
// per-cycle path must be proven lossless by the value-range analysis or
// carry a //metrovet:truncate <reason> valve.
func TruncatingConversion() *Analyzer {
	return &Analyzer{
		Name: "truncating-conversion",
		Doc:  "narrowing integer conversions reachable from Eval/Commit must be proven lossless by value-range analysis; annotate //metrovet:truncate <reason> when intended",
		Run: func(p *Package) []Finding {
			return valueRangeFindings(NewProgram([]*Package{p}), "truncating-conversion")
		},
		RunProgram: func(prog *Program) []Finding {
			return valueRangeFindings(prog, "truncating-conversion")
		},
	}
}

// WidthContract returns the width-contract analyzer: channel widths in
// METRO are 1..32 bits, and internal/word's Mask/checksum helpers
// silently saturate or zero outside that range. Width arguments at word
// call sites must be proven within [1, 32], and shift amounts must be
// proven below the shifted operand's bit width (an over-wide shift
// zeroes the value without any runtime signal).
func WidthContract() *Analyzer {
	return &Analyzer{
		Name: "width-contract",
		Doc:  "word.Mask/checksum width arguments proven within [1,32] and shift amounts proven below the operand width on Eval/Commit paths; annotate //metrovet:width <reason> when validated elsewhere",
		Run: func(p *Package) []Finding {
			return valueRangeFindings(NewProgram([]*Package{p}), "width-contract")
		},
		RunProgram: func(prog *Program) []Finding {
			return valueRangeFindings(prog, "width-contract")
		},
	}
}

// wordWidthArgs maps internal/word functions to the position of their
// width parameter (the [1, 32] contract of MV012).
var wordWidthArgs = map[string]int{
	"Mask":           0,
	"MakeData":       1,
	"ChecksumWords":  0,
	"SplitChecksum":  1,
	"AppendChecksum": 2,
	"JoinChecksum":   1,
}

// isWordPackage reports whether an import path is the packed-word
// package carrying the width contract (suffix match so in-memory
// fixtures can model it).
func isWordPackage(path string) bool {
	return path == "metro/internal/word" || strings.HasSuffix(path, "/internal/word")
}

// valueRange is the shared result of one analysis run over a Program,
// cached on the Program so both rules compute it once.
type valueRange struct {
	findings map[string][]Finding
	// seen deduplicates findings (a closure body or loop head can be
	// walked more than once).
	seen map[string]bool
}

// valueRangeFindings returns one rule's findings, computing and caching
// the shared analysis on first use.
func valueRangeFindings(prog *Program, rule string) []Finding {
	if prog.vr == nil {
		prog.vr = computeValueRange(prog)
	}
	return append([]Finding(nil), prog.vr.findings[rule]...)
}

// computeValueRange runs the whole analysis: one recording pass over the
// bodies of the functions reachable from the Eval/Commit roots, each
// with its parameters at their type range.
func computeValueRange(prog *Program) *valueRange {
	vr := &valueRange{findings: map[string][]Finding{}, seen: map[string]bool{}}
	roots := componentRoots(prog, nil, "Eval", "Commit")
	if len(roots) == 0 {
		return vr
	}
	reached := prog.CallGraph().Reachable(roots, nil)
	for _, n := range reachedNodes(reached) {
		ev := &vrEval{vr: vr, node: n, root: reached[n].Root}
		ev.run()
	}
	for rule := range vr.findings {
		SortFindings(vr.findings[rule])
	}
	return vr
}

// vrEnv is the flow-sensitive abstract environment: integer value facts
// keyed by canonical expression path ("i", "p.injHead", "r.fwd").
type vrEnv struct {
	// vals abstracts integer-valued paths; a missing key is top.
	vals map[string]AbsVal
}

func newEnv() *vrEnv {
	return &vrEnv{vals: map[string]AbsVal{}}
}

func (e *vrEnv) clone() *vrEnv {
	out := newEnv()
	for k, v := range e.vals {
		out.vals[k] = v
	}
	return out
}

// join merges two environments pointwise; facts present on only one side
// are dropped (the other side knows nothing). nil environments mean
// "unreachable" and act as the identity.
func joinEnv(a, b *vrEnv) *vrEnv {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := newEnv()
	for k, av := range a.vals {
		if bv, ok := b.vals[k]; ok {
			out.vals[k] = av.Join(bv)
		}
	}
	return out
}

// equalEnv reports whether two environments carry identical facts (the
// loop-fixpoint termination test).
func equalEnv(a, b *vrEnv) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.vals) != len(b.vals) {
		return false
	}
	for k, v := range a.vals {
		if b.vals[k] != v {
			return false
		}
	}
	return true
}

// widenEnv widens a toward b: facts that grew lose the unstable bound,
// so loop fixpoints terminate in a bounded number of iterations.
func widenEnv(a, b *vrEnv) *vrEnv {
	j := joinEnv(a, b)
	if a == nil || j == nil {
		return j
	}
	for k, jv := range j.vals {
		av, ok := a.vals[k]
		if !ok {
			continue
		}
		if jv.Wide || av.Wide || jv.Bot {
			continue
		}
		if jv.Lo < av.Lo {
			jv.Lo = math.MinInt64
		}
		if jv.Hi > av.Hi {
			jv.Hi = math.MaxInt64
		}
		j.vals[k] = jv.normalize()
	}
	return j
}

// killPath removes every fact about path and any extension of it
// (assigning to p kills p.injHead too).
func (e *vrEnv) killPath(path string) {
	for k := range e.vals {
		if k == path || strings.HasPrefix(k, path+".") {
			delete(e.vals, k)
		}
	}
}

// killFields drops value facts on field paths (those containing a dot)
// and on address-taken locals: a call can mutate anything reachable
// through a pointer.
func (e *vrEnv) killFields(addrTaken map[string]bool) {
	for k := range e.vals {
		if strings.Contains(k, ".") || addrTaken[k] {
			delete(e.vals, k)
		}
	}
}

// flowOut is the result of executing a statement: the fall-through
// environment (nil when control never falls through) plus the
// environments flowing to the nearest enclosing break and continue.
type flowOut struct {
	env  *vrEnv
	brk  []*vrEnv
	cont []*vrEnv
}

func fall(env *vrEnv) flowOut { return flowOut{env: env} }

// vrEval evaluates one function body, recording check outcomes into vr.
type vrEval struct {
	vr   *valueRange
	node *FuncNode
	// root labels finding messages.
	root string
	// mute suppresses recording during loop-fixpoint iterations.
	mute int
	// addrTaken marks local paths whose address escapes in this body.
	addrTaken map[string]bool
}

func (ev *vrEval) pkg() *Package { return ev.node.Pkg }

// run evaluates the node's body once.
func (ev *vrEval) run() {
	fd := ev.node.Decl
	if fd.Body == nil || ev.pkg().Types == nil || ev.pkg().Info == nil {
		return
	}
	ev.addrTaken = map[string]bool{}
	degraded := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if path := canonPath(e.X); path != "" {
					ev.addrTaken[path] = true
				}
			}
		case *ast.BranchStmt:
			if e.Tok == token.GOTO || e.Label != nil {
				degraded = true
			}
		}
		return true
	})

	if degraded {
		// goto or labeled branches: no reliable flow order. Walk every
		// expression with an empty environment so constant-provable
		// checks still record.
		top := newEnv()
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if expr, ok := n.(ast.Expr); ok {
				ev.eval(expr, top)
				return false
			}
			return true
		})
		return
	}

	// Parameters are untracked, so they read as their type range (callers
	// are not consulted). Named results start at zero, as the language
	// defines.
	env := newEnv()
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			for _, name := range field.Names {
				if _, ok := typeShape(ev.pkg().TypeOf(name)); ok {
					env.vals[name.Name] = absConst(0)
				}
			}
		}
	}
	ev.execBlock(fd.Body, env)
}

// execBlock runs a statement list.
func (ev *vrEval) execBlock(b *ast.BlockStmt, env *vrEnv) flowOut {
	out := fall(env)
	for _, s := range b.List {
		if out.env == nil {
			break
		}
		r := ev.execStmt(s, out.env)
		out.env = r.env
		out.brk = append(out.brk, r.brk...)
		out.cont = append(out.cont, r.cont...)
	}
	return out
}

// execStmt runs one statement.
func (ev *vrEval) execStmt(s ast.Stmt, env *vrEnv) flowOut {
	switch st := s.(type) {
	case *ast.BlockStmt:
		return ev.execBlock(st, env)
	case *ast.ExprStmt:
		ev.eval(st.X, env)
		ev.callEffects(st.X, env)
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok &&
			calleeBuiltin(ev.pkg(), call) == "panic" {
			// panic never falls through, so an if-guarded panic refines
			// the code after the if with the guard's negation — the
			// validate-or-die idiom (if w < 1 || w > 32 { panic(...) }).
			return flowOut{}
		}
		return fall(env)
	case *ast.AssignStmt:
		return fall(ev.execAssign(st, env))
	case *ast.IncDecStmt:
		return fall(ev.execIncDec(st, env))
	case *ast.DeclStmt:
		return fall(ev.execDecl(st, env))
	case *ast.IfStmt:
		return ev.execIf(st, env)
	case *ast.ForStmt:
		return fall(ev.execFor(st, env))
	case *ast.RangeStmt:
		return fall(ev.execRange(st, env))
	case *ast.SwitchStmt:
		return ev.execSwitch(st, env)
	case *ast.TypeSwitchStmt:
		return ev.execTypeSwitch(st, env)
	case *ast.SelectStmt:
		return ev.execSelect(st, env)
	case *ast.ReturnStmt:
		ev.execReturn(st, env)
		return flowOut{}
	case *ast.BranchStmt:
		switch st.Tok {
		case token.BREAK:
			return flowOut{brk: []*vrEnv{env}}
		case token.CONTINUE:
			return flowOut{cont: []*vrEnv{env}}
		}
		// goto / fallthrough outside a switch clause: treated by the
		// degraded path; never reached here.
		return flowOut{}
	case *ast.LabeledStmt:
		// Labels without labeled branches (degraded mode catches the
		// rest) are plain statements.
		return ev.execStmt(st.Stmt, env)
	case *ast.DeferStmt:
		ev.eval(st.Call, env)
		ev.callEffects(st.Call, env)
		return fall(env)
	case *ast.GoStmt:
		ev.eval(st.Call, env)
		ev.callEffects(st.Call, env)
		return fall(env)
	case *ast.SendStmt:
		ev.eval(st.Chan, env)
		ev.eval(st.Value, env)
		return fall(env)
	case *ast.EmptyStmt:
		return fall(env)
	}
	return fall(env)
}

// callEffects applies the call-boundary concession after any statement
// that evaluates a call for effect: field facts and address-taken
// locals may have changed.
func (ev *vrEval) callEffects(expr ast.Expr, env *vrEnv) {
	if containsCall(expr) {
		env.killFields(ev.addrTaken)
	}
}

// containsCall reports whether expr contains any function call (method
// calls included; conversions and builtins excluded where detectable is
// not worth the precision — they count as calls too, conservatively).
func containsCall(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

// execAssign handles =, :=, and the compound assignment operators.
func (ev *vrEval) execAssign(st *ast.AssignStmt, env *vrEnv) *vrEnv {
	switch st.Tok {
	case token.ASSIGN, token.DEFINE:
		if len(st.Lhs) == len(st.Rhs) {
			// Evaluate all RHS first (Go semantics), then bind.
			vals := make([]AbsVal, len(st.Rhs))
			for i, r := range st.Rhs {
				vals[i] = ev.eval(r, env)
			}
			for _, r := range st.Rhs {
				ev.callEffects(r, env)
			}
			for i := range st.Lhs {
				ev.bind(env, st.Lhs[i], vals[i])
			}
			return env
		}
		// Tuple assignment from a call, map read, or type assertion.
		for _, r := range st.Rhs {
			ev.eval(r, env)
			ev.callEffects(r, env)
		}
		for _, l := range st.Lhs {
			ev.bind(env, l, ev.topOf(l))
		}
		return env
	default:
		// Compound op=: lhs = lhs OP rhs.
		if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
			return env
		}
		l, r := st.Lhs[0], st.Rhs[0]
		lv := ev.eval(l, env)
		rv := ev.eval(r, env)
		ev.callEffects(r, env)
		op, ok := assignOp(st.Tok)
		if !ok {
			return env
		}
		if op == token.SHL || op == token.SHR {
			ev.checkShift(st.TokPos, l, rv)
		}
		v := applyBinary(op, lv, rv)
		if it, okt := typeShape(ev.pkg().TypeOf(l)); okt {
			v = v.clamp(it)
		} else {
			v = absAny()
		}
		if path := canonPath(l); path != "" {
			env.vals[path] = v
		}
		return env
	}
}

// bind assigns val to the lhs expression, replacing its value facts.
func (ev *vrEval) bind(env *vrEnv, lhs ast.Expr, val AbsVal) {
	path := canonPath(lhs)
	if path == "" {
		// Assignment through an index, dereference, or other opaque
		// lvalue. Evaluate the target expression itself for the check
		// sites inside it, then drop the facts it can alias: element
		// writes touch no canonical path, but a write through a pointer
		// can change any field.
		ev.eval(lhs, env)
		if _, isIndex := ast.Unparen(lhs).(*ast.IndexExpr); !isIndex {
			env.killFields(ev.addrTaken)
		}
		return
	}
	env.killPath(path)
	if path == "_" {
		return
	}
	if it, isInt := typeShape(ev.pkg().TypeOf(lhs)); isInt {
		env.vals[path] = val.Meet(rangeOf(it))
	}
}

// execIncDec handles x++ / x--.
func (ev *vrEval) execIncDec(st *ast.IncDecStmt, env *vrEnv) *vrEnv {
	v := ev.eval(st.X, env)
	one := absConst(1)
	var next AbsVal
	if st.Tok == token.INC {
		next = absAdd(v, one)
	} else {
		next = absSub(v, one)
	}
	if it, ok := typeShape(ev.pkg().TypeOf(st.X)); ok {
		next = next.clamp(it)
	}
	if path := canonPath(st.X); path != "" {
		env.vals[path] = next
	}
	return env
}

// execDecl handles var declarations (zero values included: var x int
// really is 0).
func (ev *vrEval) execDecl(st *ast.DeclStmt, env *vrEnv) *vrEnv {
	gd, ok := st.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return env
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Values) == len(vs.Names) {
			for i, name := range vs.Names {
				v := ev.eval(vs.Values[i], env)
				ev.callEffects(vs.Values[i], env)
				ev.bind(env, name, v)
			}
			continue
		}
		for _, name := range vs.Names {
			if name.Name == "_" {
				continue
			}
			env.killPath(name.Name)
			if _, ok := typeShape(ev.pkg().TypeOf(name)); ok && len(vs.Values) == 0 {
				env.vals[name.Name] = absConst(0)
			}
		}
		for _, v := range vs.Values {
			ev.eval(v, env)
			ev.callEffects(v, env)
		}
	}
	return env
}

// execIf runs an if/else with branch refinement.
func (ev *vrEval) execIf(st *ast.IfStmt, env *vrEnv) flowOut {
	if st.Init != nil {
		r := ev.execStmt(st.Init, env)
		env = r.env
		if env == nil {
			return flowOut{}
		}
	}
	ev.eval(st.Cond, env)
	ev.callEffects(st.Cond, env)
	thenEnv, elseEnv := ev.refine(st.Cond, env)

	var thenOut flowOut
	if thenEnv != nil {
		thenOut = ev.execBlock(st.Body, thenEnv)
	}
	var elseOut flowOut
	if st.Else != nil {
		if elseEnv != nil {
			elseOut = ev.execStmt(st.Else, elseEnv)
		}
	} else {
		elseOut = fall(elseEnv)
	}
	return flowOut{
		env:  joinEnv(thenOut.env, elseOut.env),
		brk:  append(thenOut.brk, elseOut.brk...),
		cont: append(thenOut.cont, elseOut.cont...),
	}
}

// maxLoopIter bounds the loop fixpoint; widening kicks in only on the
// final iterations so small stable bounds (a shift accumulator capped
// by a break) get a chance to converge exactly before unstable bounds
// blow to infinity.
const maxLoopIter = 6

// execFor runs a for loop to a local fixpoint, then (in recording mode)
// one recorded pass over the converged head.
func (ev *vrEval) execFor(st *ast.ForStmt, env *vrEnv) *vrEnv {
	if st.Init != nil {
		r := ev.execStmt(st.Init, env)
		env = r.env
		if env == nil {
			return nil
		}
	}
	body := func(head *vrEnv) (after *vrEnv, exit *vrEnv) {
		var condT, condF *vrEnv
		if st.Cond != nil {
			ev.eval(st.Cond, head)
			ev.callEffects(st.Cond, head)
			condT, condF = ev.refine(st.Cond, head)
		} else {
			condT, condF = head, nil
		}
		var out flowOut
		if condT != nil {
			out = ev.execBlock(st.Body, condT)
		}
		exit = condF
		for _, b := range out.brk {
			exit = joinEnv(exit, b)
		}
		after = out.env
		for _, c := range out.cont {
			after = joinEnv(after, c)
		}
		if after != nil && st.Post != nil {
			r := ev.execStmt(st.Post, after)
			after = r.env
		}
		return after, exit
	}
	return ev.loopFixpoint(env, body)
}

// execRange runs a range loop. Array and integer ranges bound the key
// variable, slice and string ranges make it nonnegative, and map and
// channel ranges leave it at its type range.
func (ev *vrEval) execRange(st *ast.RangeStmt, env *vrEnv) *vrEnv {
	n := ev.eval(st.X, env)
	ev.callEffects(st.X, env)
	xt := ev.pkg().TypeOf(st.X)

	// The key bound: [0, len-1] where the length is statically known.
	keyBound, indexed := AbsVal{Lo: 0, Hi: math.MaxInt64}, true
	if alen, ok := arrayLenOf(xt); ok {
		keyBound.Hi = max64(alen-1, 0)
	} else if _, ok := typeShape(xt); ok {
		// range over an integer n: keys are [0, n-1].
		if !n.Wide && n.Hi > math.MinInt64 {
			keyBound.Hi = max64(n.Hi-1, 0)
		}
	} else {
		indexed = xt != nil && isSliceOrString(xt)
	}

	keyPath := ""
	if st.Key != nil && st.Tok != token.ILLEGAL {
		keyPath = canonPath(st.Key)
	}
	valPath := ""
	if st.Value != nil {
		valPath = canonPath(st.Value)
	}

	body := func(head *vrEnv) (after *vrEnv, exit *vrEnv) {
		iter := head.clone()
		if keyPath != "" && keyPath != "_" {
			iter.killPath(keyPath)
			if _, ok := typeShape(ev.pkg().TypeOf(st.Key)); ok && indexed {
				iter.vals[keyPath] = keyBound
			}
		}
		if valPath != "" {
			iter.killPath(valPath)
		}
		out := ev.execBlock(st.Body, iter)
		exit = head // the loop may execute zero times
		for _, b := range out.brk {
			exit = joinEnv(exit, b)
		}
		after = out.env
		for _, c := range out.cont {
			after = joinEnv(after, c)
		}
		return after, exit
	}
	return ev.loopFixpoint(env, body)
}

// loopFixpoint iterates body from the entry environment until the head
// stabilizes (widening near the bound), then runs one final recorded
// iteration on the converged head. body returns the environment after
// one iteration (nil if the body never falls through) and the loop-exit
// environment contribution of this iteration.
func (ev *vrEval) loopFixpoint(entry *vrEnv, body func(*vrEnv) (after, exit *vrEnv)) *vrEnv {
	head := entry
	ev.mute++
	for i := 0; i < maxLoopIter; i++ {
		after, _ := body(head.clone())
		var next *vrEnv
		if i >= maxLoopIter-2 {
			next = widenEnv(head, after)
		} else {
			next = joinEnv(head.clone(), after)
		}
		if next == nil {
			next = head
		}
		if equalEnv(head, next) {
			break
		}
		head = next
	}
	ev.mute--
	_, exit := body(head.clone())
	return exit
}

// execSwitch runs a value switch with equality refinement per clause
// (skipped entirely when any clause falls through).
func (ev *vrEval) execSwitch(st *ast.SwitchStmt, env *vrEnv) flowOut {
	if st.Init != nil {
		r := ev.execStmt(st.Init, env)
		env = r.env
		if env == nil {
			return flowOut{}
		}
	}
	var tagPath string
	if st.Tag != nil {
		ev.eval(st.Tag, env)
		ev.callEffects(st.Tag, env)
		tagPath = canonPath(st.Tag)
	}
	hasFallthrough := false
	ast.Inspect(st.Body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BranchStmt); ok && b.Tok == token.FALLTHROUGH {
			hasFallthrough = true
		}
		return true
	})
	var outs []*vrEnv
	var conts []*vrEnv
	hasDefault := false
	for _, c := range st.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		clauseEnv := env.clone()
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			ev.eval(e, clauseEnv)
		}
		if !hasFallthrough && tagPath != "" && len(cc.List) == 1 {
			// switch x { case k: ... } refines x == k in the clause.
			if v := ev.eval(cc.List[0], clauseEnv); !v.Bot {
				if cur, ok := clauseEnv.vals[tagPath]; ok {
					clauseEnv.vals[tagPath] = cur.Meet(v)
				} else if it, okt := typeShape(ev.pkg().TypeOf(st.Tag)); okt {
					clauseEnv.vals[tagPath] = v.Meet(rangeOf(it))
				}
			}
		}
		out := ev.execClause(cc.Body, clauseEnv)
		outs = append(outs, out.env)
		for _, b := range out.brk {
			outs = append(outs, b)
		}
		conts = append(conts, out.cont...)
	}
	var merged *vrEnv
	for _, o := range outs {
		merged = joinEnv(merged, o)
	}
	if !hasDefault {
		merged = joinEnv(merged, env)
	}
	return flowOut{env: merged, cont: conts}
}

// execClause runs a case clause body (break applies to the switch).
func (ev *vrEval) execClause(stmts []ast.Stmt, env *vrEnv) flowOut {
	out := fall(env)
	for _, s := range stmts {
		if out.env == nil {
			break
		}
		if b, ok := s.(*ast.BranchStmt); ok && b.Tok == token.FALLTHROUGH {
			continue
		}
		r := ev.execStmt(s, out.env)
		out.env = r.env
		out.brk = append(out.brk, r.brk...)
		out.cont = append(out.cont, r.cont...)
	}
	return out
}

// execTypeSwitch runs each clause on a copy of the entry environment.
func (ev *vrEval) execTypeSwitch(st *ast.TypeSwitchStmt, env *vrEnv) flowOut {
	if st.Init != nil {
		r := ev.execStmt(st.Init, env)
		env = r.env
		if env == nil {
			return flowOut{}
		}
	}
	ev.execStmt(st.Assign, env.clone())
	var merged *vrEnv
	var conts []*vrEnv
	for _, c := range st.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		out := ev.execClause(cc.Body, env.clone())
		merged = joinEnv(merged, out.env)
		for _, b := range out.brk {
			merged = joinEnv(merged, b)
		}
		conts = append(conts, out.cont...)
	}
	merged = joinEnv(merged, env)
	return flowOut{env: merged, cont: conts}
}

// execSelect runs each comm clause on a copy of the entry environment.
func (ev *vrEval) execSelect(st *ast.SelectStmt, env *vrEnv) flowOut {
	var merged *vrEnv
	var conts []*vrEnv
	for _, c := range st.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		clauseEnv := env.clone()
		if cc.Comm != nil {
			r := ev.execStmt(cc.Comm, clauseEnv)
			clauseEnv = r.env
		}
		if clauseEnv == nil {
			continue
		}
		out := ev.execClause(cc.Body, clauseEnv)
		merged = joinEnv(merged, out.env)
		for _, b := range out.brk {
			merged = joinEnv(merged, b)
		}
		conts = append(conts, out.cont...)
	}
	return flowOut{env: merged, cont: conts}
}

// execReturn walks the return values for the check sites inside them.
func (ev *vrEval) execReturn(st *ast.ReturnStmt, env *vrEnv) {
	for _, r := range st.Results {
		ev.eval(r, env)
	}
}
