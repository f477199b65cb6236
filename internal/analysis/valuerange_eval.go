package analysis

// Expression evaluation, branch refinement, and the MV010/MV012 check
// sites for the value-range analysis (see valuerange.go).

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math"
)

// canonPath renders an expression as a canonical fact key: a chain of
// plain identifiers and field selections ("i", "p.injHead", "r.fwd").
// Anything else — calls, indexes, dereferences — returns "".
func canonPath(expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := canonPath(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

// constVal reads the type-checker's constant value for an expression,
// when it has one (named constants, iota, folded literals).
func (ev *vrEval) constVal(expr ast.Expr) (AbsVal, bool) {
	for _, info := range []*types.Info{ev.pkg().Info, ev.pkg().XInfo} {
		if info == nil {
			continue
		}
		tv, ok := info.Types[expr]
		if !ok || tv.Value == nil {
			continue
		}
		if tv.Value.Kind() != constant.Int {
			return AbsVal{}, false
		}
		if v, exact := constant.Int64Val(tv.Value); exact {
			return absConst(v), true
		}
		if v, exact := constant.Uint64Val(tv.Value); exact {
			return absConstU(v), true
		}
		return AbsVal{}, false
	}
	return AbsVal{}, false
}

// topOf is the abstraction of an untracked expression: the full range of
// its static type.
func (ev *vrEval) topOf(expr ast.Expr) AbsVal {
	if it, ok := typeShape(ev.pkg().TypeOf(expr)); ok {
		return rangeOf(it)
	}
	return absAny()
}

// eval abstracts one expression's value in env, recording rule checks
// along the way (unless the evaluator is muted).
// Every syntactic subexpression is visited exactly once per execution.
func (ev *vrEval) eval(expr ast.Expr, env *vrEnv) AbsVal {
	switch e := expr.(type) {
	case *ast.ParenExpr:
		return ev.eval(e.X, env)
	case *ast.BasicLit:
		if v, ok := ev.constVal(e); ok {
			return v
		}
		return ev.topOf(e)
	case *ast.Ident:
		if v, ok := ev.constVal(e); ok {
			return v
		}
		return ev.pathValue(e, env)
	case *ast.SelectorExpr:
		if v, ok := ev.constVal(e); ok {
			return v
		}
		ev.eval(e.X, env)
		return ev.pathValue(e, env)
	case *ast.BinaryExpr:
		return ev.evalBinary(e, env)
	case *ast.UnaryExpr:
		return ev.evalUnary(e, env)
	case *ast.CallExpr:
		return ev.evalCall(e, env)
	case *ast.IndexExpr:
		return ev.evalIndex(e, env)
	case *ast.SliceExpr:
		ev.eval(e.X, env)
		if e.Low != nil {
			ev.eval(e.Low, env)
		}
		if e.High != nil {
			ev.eval(e.High, env)
		}
		if e.Max != nil {
			ev.eval(e.Max, env)
		}
		return ev.topOf(e)
	case *ast.StarExpr:
		ev.eval(e.X, env)
		return ev.topOf(e)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				ev.eval(kv.Value, env)
			} else {
				ev.eval(elt, env)
			}
		}
		return ev.topOf(e)
	case *ast.FuncLit:
		// A closure's body runs with no caller facts; walk it for checks
		// with an empty environment.
		ev.execBlock(e.Body, newEnv())
		return absAny()
	case *ast.TypeAssertExpr:
		ev.eval(e.X, env)
		return ev.topOf(e)
	case *ast.KeyValueExpr:
		ev.eval(e.Value, env)
		return absAny()
	case *ast.IndexListExpr:
		ev.eval(e.X, env)
		return ev.topOf(e)
	}
	if expr == nil {
		return absAny()
	}
	if v, ok := ev.constVal(expr); ok {
		return v
	}
	return ev.topOf(expr)
}

// pathValue looks up a canonical path's abstraction; an untracked path
// (or an expression that is no path: "" is never a key) is top.
func (ev *vrEval) pathValue(expr ast.Expr, env *vrEnv) AbsVal {
	if v, ok := env.vals[canonPath(expr)]; ok {
		return v
	}
	return ev.topOf(expr)
}

// evalBinary abstracts a binary expression, recording the shift-width
// check on << and >>.
func (ev *vrEval) evalBinary(e *ast.BinaryExpr, env *vrEnv) AbsVal {
	if v, ok := ev.constVal(e); ok {
		// Still walk for check sites buried in a non-constant half (a
		// constant expression has none, but cheap to be consistent).
		return v
	}
	switch e.Op {
	case token.LAND, token.LOR:
		ev.eval(e.X, env)
		// Short-circuit: the right side runs under the left's refinement.
		rEnv := env
		if t, f := ev.refine(e.X, env); e.Op == token.LAND {
			if t != nil {
				rEnv = t
			}
		} else if f != nil {
			rEnv = f
		}
		ev.eval(e.Y, rEnv)
		return absRange(0, 1)
	}
	x := ev.eval(e.X, env)
	y := ev.eval(e.Y, env)
	switch e.Op {
	case token.SHL, token.SHR:
		ev.checkShift(e.OpPos, e.X, y)
	}
	v := applyBinary(e.Op, x, y)
	if it, ok := typeShape(ev.pkg().TypeOf(e)); ok {
		return v.clamp(it)
	}
	return v
}

// applyBinary routes an operator to its transfer function.
func applyBinary(op token.Token, x, y AbsVal) AbsVal {
	switch op {
	case token.ADD:
		return absAdd(x, y)
	case token.SUB:
		return absSub(x, y)
	case token.MUL:
		return absMul(x, y)
	case token.QUO:
		return absDiv(x, y)
	case token.REM:
		return absMod(x, y)
	case token.SHL:
		return absShl(x, y)
	case token.SHR:
		return absShr(x, y)
	case token.AND:
		return absAnd(x, y)
	case token.OR:
		return absOr(x, y)
	case token.XOR:
		return absXor(x, y)
	case token.AND_NOT:
		return absAndNot(x, y)
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return absRange(0, 1)
	}
	return absAny()
}

// assignOp maps a compound assignment token to its binary operator.
func assignOp(tok token.Token) (token.Token, bool) {
	switch tok {
	case token.ADD_ASSIGN:
		return token.ADD, true
	case token.SUB_ASSIGN:
		return token.SUB, true
	case token.MUL_ASSIGN:
		return token.MUL, true
	case token.QUO_ASSIGN:
		return token.QUO, true
	case token.REM_ASSIGN:
		return token.REM, true
	case token.SHL_ASSIGN:
		return token.SHL, true
	case token.SHR_ASSIGN:
		return token.SHR, true
	case token.AND_ASSIGN:
		return token.AND, true
	case token.OR_ASSIGN:
		return token.OR, true
	case token.XOR_ASSIGN:
		return token.XOR, true
	case token.AND_NOT_ASSIGN:
		return token.AND_NOT, true
	}
	return token.ILLEGAL, false
}

// evalUnary abstracts a unary expression.
func (ev *vrEval) evalUnary(e *ast.UnaryExpr, env *vrEnv) AbsVal {
	if v, ok := ev.constVal(e); ok {
		return v
	}
	x := ev.eval(e.X, env)
	var v AbsVal
	switch e.Op {
	case token.SUB:
		v = absNeg(x)
	case token.XOR:
		v = absNot(x)
	case token.ADD:
		v = x
	default:
		return ev.topOf(e)
	}
	if it, ok := typeShape(ev.pkg().TypeOf(e)); ok {
		return v.clamp(it)
	}
	return v
}

// calleeBuiltin returns the builtin name a call invokes ("" otherwise).
func calleeBuiltin(p *Package, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || !isBuiltin(p, id) {
		return ""
	}
	return id.Name
}

// evalCall abstracts a call: builtins, conversions (the MV010 site) and
// width-contract call sites (MV012). Any other call's result reads as
// the full range of its type.
func (ev *vrEval) evalCall(e *ast.CallExpr, env *vrEnv) AbsVal {
	if v, ok := ev.constVal(e); ok {
		// Constant conversions are checked by the type checker itself.
		return v
	}
	// Builtins.
	switch calleeBuiltin(ev.pkg(), e) {
	case "len", "cap":
		if len(e.Args) == 1 {
			arg := e.Args[0]
			ev.eval(arg, env)
			if n, ok := arrayLenOf(ev.pkg().TypeOf(arg)); ok {
				return absConst(n)
			}
			return AbsVal{Lo: 0, Hi: math.MaxInt64}
		}
	case "min":
		if len(e.Args) >= 2 {
			v := ev.eval(e.Args[0], env)
			for _, a := range e.Args[1:] {
				v = absMin(v, ev.eval(a, env))
			}
			return v
		}
	case "max":
		if len(e.Args) >= 2 {
			v := ev.eval(e.Args[0], env)
			for _, a := range e.Args[1:] {
				v = absMax(v, ev.eval(a, env))
			}
			return v
		}
	case "":
		// Not a builtin; fall through.
	default:
		for _, a := range e.Args {
			ev.eval(a, env)
		}
		return ev.topOf(e)
	}

	// Conversion? A call whose Fun denotes a type.
	if to, isConv := ev.conversionTarget(e); isConv && len(e.Args) == 1 {
		src := ev.eval(e.Args[0], env)
		from, okFrom := typeShape(ev.pkg().TypeOf(e.Args[0]))
		if okFrom {
			ev.checkConversion(e, src, from, to)
			return absConvert(src, from, to)
		}
		return rangeOf(to)
	} else if isConv {
		for _, a := range e.Args {
			ev.eval(a, env)
		}
		return ev.topOf(e)
	}

	// Plain call: evaluate the function expression (a method's receiver
	// may contain checks) and the arguments.
	ev.evalCallFun(e.Fun, env)
	args := make([]AbsVal, len(e.Args))
	for i, a := range e.Args {
		args[i] = ev.eval(a, env)
	}

	ev.checkWidthArg(e, args)
	return ev.topOf(e)
}

// evalCallFun walks the callee expression of a call for nested checks.
func (ev *vrEval) evalCallFun(fun ast.Expr, env *vrEnv) {
	switch f := ast.Unparen(fun).(type) {
	case *ast.SelectorExpr:
		ev.eval(f.X, env)
	case *ast.Ident:
		// Nothing nested.
	default:
		ev.eval(f, env)
	}
}

// conversionTarget reports whether a call is a conversion to an integer
// shape.
func (ev *vrEval) conversionTarget(call *ast.CallExpr) (intType, bool) {
	fun := ast.Unparen(call.Fun)
	var tt types.Type
	switch f := fun.(type) {
	case *ast.Ident:
		if tn, ok := ev.pkg().ObjectOf(f).(*types.TypeName); ok {
			tt = tn.Type()
		}
	case *ast.SelectorExpr:
		if tn, ok := ev.pkg().ObjectOf(f.Sel).(*types.TypeName); ok {
			tt = tn.Type()
		}
	case *ast.ArrayType, *ast.StarExpr, *ast.MapType, *ast.ChanType, *ast.FuncType, *ast.InterfaceType, *ast.StructType:
		return intType{}, true // a conversion, but not to an integer
	}
	if tt == nil {
		return intType{}, false
	}
	it, ok := typeShape(tt)
	if !ok {
		return intType{}, true // conversion to string/float/etc.
	}
	return it, true
}

// evalIndex abstracts s[i]. (Whether i is in bounds is the -bce gate's
// question, not this analysis's.)
func (ev *vrEval) evalIndex(e *ast.IndexExpr, env *vrEnv) AbsVal {
	ev.eval(e.X, env)
	ev.eval(e.Index, env)
	if v, ok := ev.constVal(e); ok {
		return v
	}
	return ev.topOf(e)
}

// --- check sites --------------------------------------------------------

// emit records one finding, once, unless muted or covered by a
// function-level or line valve.
func (ev *vrEval) emit(rule, kind string, pos token.Pos, msg string) {
	if ev.mute > 0 || docDirective(ev.node.Decl.Doc, kind) {
		return
	}
	p := ev.pkg()
	position := p.Fset.Position(pos)
	dedup := fmt.Sprintf("%s|%s:%d:%d|%s", rule, position.Filename, position.Line, position.Column, msg)
	if ev.vr.seen[dedup] {
		return
	}
	ev.vr.seen[dedup] = true
	if p.suppressed(rule, kind, position) {
		return
	}
	ev.vr.findings[rule] = append(ev.vr.findings[rule], Finding{Pos: position, Rule: rule, Msg: msg})
}

// checkConversion is the MV010 site: a conversion between integer
// shapes where the source shape does not statically fit the target must
// have its value proven to fit.
func (ev *vrEval) checkConversion(call *ast.CallExpr, src AbsVal, from, to intType) {
	if shapeFits(from, to) {
		return // widening or same-shape: never lossy
	}
	if src.fits(to) {
		return // proven lossless at this site
	}
	ev.emit("truncating-conversion", "truncate", call.Pos(),
		fmt.Sprintf("conversion %s -> %s may truncate (operand range %s) in per-cycle path (reachable from %s); prove the range or annotate //metrovet:truncate <reason>",
			shapeName(from), shapeName(to), src, ev.root))
}

// shapeFits reports whether every value of shape a is representable in
// shape b (so the conversion is statically lossless).
func shapeFits(a, b intType) bool {
	if a.signed == b.signed {
		return a.bits <= b.bits
	}
	if !a.signed && b.signed {
		return a.bits < b.bits // uintN fits intM iff M > N
	}
	return false // signed into unsigned can drop negatives
}

// shapeName renders a shape for messages. The analysis models int/uint
// as their 64-bit widths (the repository's supported targets).
func shapeName(it intType) string {
	if it.signed {
		return fmt.Sprintf("int%d", it.bits)
	}
	return fmt.Sprintf("uint%d", it.bits)
}

// evalQuiet evaluates without recording checks (re-examining a
// subexpression already walked by the caller).
func (ev *vrEval) evalQuiet(expr ast.Expr, env *vrEnv) AbsVal {
	ev.mute++
	v := ev.eval(expr, env)
	ev.mute--
	return v
}

// checkShift is the MV012 shift site: the amount must be provably below
// the shifted operand's bit width (shifting a uint32 by 32 zeroes it
// silently; Go only panics on negative amounts).
func (ev *vrEval) checkShift(pos token.Pos, x ast.Expr, amount AbsVal) {
	if ev.mute > 0 {
		return
	}
	it, ok := typeShape(ev.pkg().TypeOf(x))
	if !ok {
		return
	}
	if amount.In(0, int64(it.bits-1)) {
		return
	}
	ev.emit("width-contract", "width", pos,
		fmt.Sprintf("shift amount not proven within [0, %d] for a %d-bit operand (amount %s) in per-cycle path (reachable from %s); bound the amount or annotate //metrovet:width <reason>",
			it.bits-1, it.bits, amount, ev.root))
}

// checkWidthArg is the MV012 width-argument site: internal/word width
// parameters proven within [1, 32].
func (ev *vrEval) checkWidthArg(call *ast.CallExpr, args []AbsVal) {
	if ev.mute > 0 {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	var fnName string
	var obj types.Object
	if ok {
		obj = ev.pkg().ObjectOf(sel.Sel)
		fnName = sel.Sel.Name
	} else if id, okID := ast.Unparen(call.Fun).(*ast.Ident); okID {
		obj = ev.pkg().ObjectOf(id)
		fnName = id.Name
	}
	fn, okFn := obj.(*types.Func)
	if !okFn || fn.Pkg() == nil || !isWordPackage(fn.Pkg().Path()) {
		return
	}
	argPos, tracked := wordWidthArgs[fnName]
	if !tracked || argPos >= len(args) {
		return
	}
	w := args[argPos]
	if w.In(1, 32) {
		return
	}
	ev.emit("width-contract", "width", call.Args[argPos].Pos(),
		fmt.Sprintf("width argument to word.%s not proven within [1, 32] (value %s) in per-cycle path (reachable from %s); validate the width or annotate //metrovet:width <reason>",
			fnName, w, ev.root))
}

// --- branch refinement --------------------------------------------------

// refine splits env on a condition: the returned environments hold in
// the true and false branches respectively (nil marks a branch proven
// unreachable). Unhandled conditions return (env, clone) unchanged.
func (ev *vrEval) refine(cond ast.Expr, env *vrEnv) (*vrEnv, *vrEnv) {
	cond = ast.Unparen(cond)
	switch e := cond.(type) {
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			t, f := ev.refine(e.X, env)
			return f, t
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			// true branch: both refinements; false branch: no facts.
			t1, _ := ev.refine(e.X, env)
			if t1 == nil {
				return nil, env.clone()
			}
			t2, _ := ev.refine(e.Y, t1)
			return t2, env.clone()
		case token.LOR:
			// false branch: both negations; true branch: no facts.
			_, f1 := ev.refine(e.X, env)
			if f1 == nil {
				return env.clone(), nil
			}
			_, f2 := ev.refine(e.Y, f1)
			return env.clone(), f2
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			return ev.refineCompare(e, env)
		}
	}
	return env, env.clone()
}

// refineCompare refines a comparison on both sides.
func (ev *vrEval) refineCompare(e *ast.BinaryExpr, env *vrEnv) (*vrEnv, *vrEnv) {
	// Normalize to X op Y with op in {<, <=, ==, !=}.
	x, y, op := e.X, e.Y, e.Op
	switch op {
	case token.GTR:
		x, y, op = e.Y, e.X, token.LSS
	case token.GEQ:
		x, y, op = e.Y, e.X, token.LEQ
	}
	if _, ok := typeShape(ev.pkg().TypeOf(x)); !ok {
		return env, env.clone()
	}

	tEnv := env.clone()
	fEnv := env.clone()
	xv := ev.evalQuiet(x, env)
	yv := ev.evalQuiet(y, env)

	switch op {
	case token.LSS: // x < y  |  else: x >= y
		ev.applyUpper(tEnv, x, yv, true)
		ev.applyLower(tEnv, y, xv, true)
		ev.applyLower(fEnv, x, yv, false)
		ev.applyUpper(fEnv, y, xv, false)
	case token.LEQ: // x <= y  |  else: x > y
		ev.applyUpper(tEnv, x, yv, false)
		ev.applyLower(tEnv, y, xv, false)
		ev.applyLower(fEnv, x, yv, true)
		ev.applyUpper(fEnv, y, xv, true)
	case token.EQL: // x == y  |  else: x != y
		ev.applyEq(tEnv, x, yv)
		ev.applyEq(tEnv, y, xv)
		ev.applyNeq(fEnv, x, yv)
		ev.applyNeq(fEnv, y, xv)
	case token.NEQ:
		ev.applyNeq(tEnv, x, yv)
		ev.applyNeq(tEnv, y, xv)
		ev.applyEq(fEnv, x, yv)
		ev.applyEq(fEnv, y, xv)
	}
	if bottomed(tEnv) {
		tEnv = nil
	}
	if bottomed(fEnv) {
		fEnv = nil
	}
	return tEnv, fEnv
}

// bottomed reports whether refinement produced an impossible fact.
func bottomed(env *vrEnv) bool {
	if env == nil {
		return true
	}
	for _, v := range env.vals {
		if v.Bot {
			return true
		}
	}
	return false
}

// applyUpper meets "x <= bound.Hi" (strict subtracts one) into env.
func (ev *vrEval) applyUpper(env *vrEnv, x ast.Expr, bound AbsVal, strict bool) {
	if bound.Bot || bound.Wide {
		return // a wide bound may exceed every int64; nothing to refine
	}
	path := canonPath(x)
	if path == "" {
		return // x constrains nothing the environment tracks
	}
	hi := bound.Hi
	if strict {
		if hi == math.MinInt64 {
			return
		}
		hi--
	}
	env.vals[path] = ev.pathValue(x, env).Meet(AbsVal{Lo: math.MinInt64, Hi: hi})
}

// applyLower meets "x >= bound.Lo" (strict adds one) into env.
func (ev *vrEval) applyLower(env *vrEnv, x ast.Expr, bound AbsVal, strict bool) {
	if bound.Bot {
		return
	}
	path := canonPath(x)
	if path == "" {
		return // x constrains nothing the environment tracks
	}
	lo := bound.Lo
	if bound.Wide {
		lo = 0
	}
	if strict {
		if lo == math.MaxInt64 {
			return
		}
		lo++
	}
	env.vals[path] = ev.pathValue(x, env).Meet(AbsVal{Lo: lo, Hi: math.MaxInt64})
}

// applyEq meets equality with a value.
func (ev *vrEval) applyEq(env *vrEnv, x ast.Expr, val AbsVal) {
	if val.Bot {
		return
	}
	path := canonPath(x)
	if path == "" {
		return // x constrains nothing the environment tracks
	}
	env.vals[path] = ev.pathValue(x, env).Meet(val)
}

// applyNeq trims a constant endpoint off the interval on x != c.
func (ev *vrEval) applyNeq(env *vrEnv, x ast.Expr, val AbsVal) {
	c, isConst := val.IsConst()
	if !isConst {
		return
	}
	path := canonPath(x)
	if path == "" {
		return // x constrains nothing the environment tracks
	}
	cur := ev.pathValue(x, env)
	if cur.Bot || cur.Wide {
		return
	}
	switch {
	case cur.Lo == c && cur.Hi == c:
		env.vals[path] = absBottom()
	case cur.Lo == c:
		cur.Lo++
		env.vals[path] = cur.normalize()
	case cur.Hi == c:
		cur.Hi--
		env.vals[path] = cur.normalize()
	}
}

// --- small type helpers -------------------------------------------------

// isSliceOrString reports a type ranges with an index key and a length.
func isSliceOrString(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice:
		return true
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Info()&types.IsString != 0
	}
	return false
}

// arrayLenOf returns the length of an array (or pointer-to-array) type.
func arrayLenOf(t types.Type) (int64, bool) {
	if t == nil {
		return 0, false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if arr, ok := t.Underlying().(*types.Array); ok {
		return arr.Len(), true
	}
	return 0, false
}
