package analysis

// The two width rules and the expression-local prover they share:
//
//	truncating-conversion (MV010) — a narrowing integer conversion in
//	    Eval/Commit-reachable code must be proven lossless.
//	width-contract (MV012) — every shift amount proven below the
//	    shifted operand's bit width. A channel width itself needs no
//	    proof: internal/word takes a word.Width, which cannot hold one
//	    outside [1, 32].
//
// Index bounds are not this analysis's business: the compiler's own
// prover behind the -bce gate covers them (docs/ANALYZERS.md).
//
// One ast.Inspect walks the body of every function reachable from the
// clocked Eval/Commit roots on the call graph and visits the
// two site kinds. A site is discharged only from what its operand
// expression shows by itself (upper, below): nothing is carried between
// statements, so no assignment, guard, loop or call anywhere else in
// the function can make a proof hold or fail. A bound that lives in an
// earlier statement (a clamp, a validate-or-panic) is a runtime
// contract: it takes a //metrovet:width or //metrovet:truncate valve
// with the reason, and a test that holds it.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math"
	"strconv"
)

// TruncatingConversion returns the truncating-conversion analyzer: METRO's
// packed word format (masks, shifts, per-width checksums) makes silent
// integer truncation a real hazard, so every narrowing conversion on the
// per-cycle path must be shown lossless by its operand expression or
// carry a //metrovet:truncate <reason> valve.
func TruncatingConversion() *Analyzer {
	return &Analyzer{
		Name: "truncating-conversion",
		Doc:  "narrowing integer conversions reachable from Eval/Commit must be shown lossless by their operand expression; annotate //metrovet:truncate <reason> when intended",
		Run: func(prog *Program) []Finding {
			return valueRangeFindings(prog, "truncating-conversion")
		},
	}
}

// WidthContract returns the width-contract analyzer: shift amounts must
// be shown below the shifted operand's bit width (an over-wide shift
// zeroes the value without any runtime signal). Channel widths are
// word.Width values, which the type keeps within [1, 32].
func WidthContract() *Analyzer {
	return &Analyzer{
		Name: "width-contract",
		Doc:  "shift amounts proven below the operand width on Eval/Commit paths; annotate //metrovet:width <reason> when bounded elsewhere",
		Run: func(prog *Program) []Finding {
			return valueRangeFindings(prog, "width-contract")
		},
	}
}

// SiteCount is how many check sites of one rule the value-range pass
// visited, and how many of them it discharged from the operand alone.
type SiteCount struct{ Proven, Checked int }

// valueRange is the pass both rules share: findings and site counts,
// by rule.
type valueRange struct {
	findings map[string][]Finding
	sites    map[string]SiteCount
}

// valueRangeFindings returns one rule's findings, running the shared
// pass on first use and caching it on the Program for the other rule.
func valueRangeFindings(prog *Program, rule string) []Finding {
	if prog.vr == nil {
		prog.vr = computeValueRange(prog)
	}
	return append([]Finding(nil), prog.vr.findings[rule]...)
}

// computeValueRange walks the body of every function reachable from the
// Eval/Commit roots and returns the findings and site counts of both
// rules.
func computeValueRange(prog *Program) *valueRange {
	vr := &valueRange{findings: map[string][]Finding{}, sites: map[string]SiteCount{}}
	roots := componentRoots(prog, nil, "Eval", "Commit")
	if len(roots) == 0 {
		return vr
	}
	reached := prog.CallGraph().Reachable(roots, nil)
	for _, n := range reachedNodes(reached) {
		if n.Decl.Body == nil || n.Pkg.Types == nil || n.Pkg.Info == nil {
			continue
		}
		w := &widthWalk{p: n.Pkg, doc: n.Decl.Doc, root: reached[n].Root, vr: vr}
		ast.Inspect(n.Decl.Body, w.visit)
	}
	for rule := range vr.findings {
		SortFindings(vr.findings[rule])
	}
	return vr
}

// widthWalk visits the check sites of one function body (closures
// included: a function literal is walked where it was written).
type widthWalk struct {
	p   *Package
	doc *ast.CommentGroup
	// root labels finding messages.
	root string
	vr   *valueRange
}

// visit is the ast.Inspect callback: the two site kinds, and nothing
// below a constant expression (the type checker already rejected any
// constant conversion or shift that loses bits, and a constant len(a[i])
// never evaluates its operand).
func (w *widthWalk) visit(n ast.Node) bool {
	switch e := n.(type) {
	case *ast.AssignStmt:
		if (e.Tok == token.SHL_ASSIGN || e.Tok == token.SHR_ASSIGN) && len(e.Lhs) == 1 && len(e.Rhs) == 1 {
			w.checkShift(e.TokPos, e.Lhs[0], e.Rhs[0])
		}
	case *ast.BinaryExpr:
		if _, isConst := w.p.constInt(e); isConst {
			return false
		}
		if e.Op == token.SHL || e.Op == token.SHR {
			w.checkShift(e.OpPos, e.X, e.Y)
		}
	case *ast.CallExpr:
		if _, isConst := w.p.constInt(e); isConst {
			return false
		}
		if tn, isConv := w.p.calleeObject(e).(*types.TypeName); isConv {
			w.checkConversion(e, tn.Type())
		}
	}
	return true
}

// emit records one finding unless a function-level or line valve of the
// given kind covers it.
func (w *widthWalk) emit(rule, kind string, pos token.Pos, msg string) {
	position := w.p.Fset.Position(pos)
	if docDirective(w.doc, kind) || w.p.suppressed(rule, kind, position) {
		return
	}
	w.vr.findings[rule] = append(w.vr.findings[rule], Finding{Pos: position, Rule: rule, Msg: msg})
}

// proven counts one check site of rule and returns whether it is proven.
func (w *widthWalk) proven(rule string, ok bool) bool {
	c := w.vr.sites[rule]
	c.Checked++
	if ok {
		c.Proven++
	}
	w.vr.sites[rule] = c
	return ok
}

// checkConversion is the MV010 site: a conversion between integer
// shapes where the source shape does not statically fit the target must
// have an operand that shows a bound inside the target.
func (w *widthWalk) checkConversion(call *ast.CallExpr, target types.Type) {
	to, toInt := typeShape(target)
	if !toInt || len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	from, fromInt := typeShape(w.p.TypeOf(arg))
	if !fromInt || shapeFits(from, to) {
		return // not from an integer, or widening / same shape: never lossy
	}
	if hi, bounded := w.p.upper(arg); w.proven("truncating-conversion", bounded && hi <= to.max()) {
		return
	}
	w.emit("truncating-conversion", "truncate", call.Pos(),
		fmt.Sprintf("conversion %s -> %s may truncate (operand range %s) in per-cycle path (reachable from %s); prove the range or annotate //metrovet:truncate <reason>",
			from, to, w.p.shownRange(arg), w.root))
}

// checkShift is the MV012 shift site: the amount must show a bound below
// the shifted operand's bit width (shifting a uint32 by 32 zeroes it
// silently; Go only panics on negative amounts).
func (w *widthWalk) checkShift(pos token.Pos, x, amount ast.Expr) {
	it, ok := typeShape(w.p.TypeOf(x))
	if !ok {
		return
	}
	if hi, bounded := w.p.upper(amount); w.proven("width-contract", bounded && hi < uint64(it.bits)) {
		return
	}
	w.emit("width-contract", "width", pos,
		fmt.Sprintf("shift amount not proven within [0, %d] for a %d-bit operand (amount %s) in per-cycle path (reachable from %s); bound the amount or annotate //metrovet:width <reason>",
			it.bits-1, it.bits, w.p.shownRange(amount), w.root))
}

// --- what an expression shows -------------------------------------------

// upper returns the largest value e can take, read off e alone: ok means
// 0 <= e <= hi on every execution, whatever the rest of the function
// does. Four shapes show a bound:
//
//	a constant            its (nonnegative) value
//	x & y                 the smaller bound either operand shows
//	x >> c, c constant    the bound x shows, shifted
//	len, cap, unsigned    MaxInt64, or the operand type's maximum
//
// Everything else (a signed variable, x | c, x % c, min(w, 8), a value
// clamped two lines earlier) shows nothing.
func (p *Package) upper(e ast.Expr) (hi uint64, ok bool) {
	e = ast.Unparen(e)
	if v, isConst := p.constInt(e); isConst {
		return constant.Uint64Val(v) // inexact for a negative constant: no bound
	}
	switch e := e.(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.AND:
			// A nonnegative operand clears the sign bit and every bit
			// above its own, whatever the other operand holds.
			x, okx := p.upper(e.X)
			y, oky := p.upper(e.Y)
			switch {
			case okx && oky:
				return min(x, y), true
			case okx:
				return x, true
			case oky:
				return y, true
			}
		case token.SHR:
			if c, isConst := p.constInt(e.Y); isConst {
				if x, okx := p.upper(e.X); okx {
					n, _ := constant.Uint64Val(c) // a negative constant count does not compile
					return x >> n, true           // 0 once n reaches 64, as Go shifts
				}
			}
		}
	case *ast.CallExpr:
		if id, isIdent := ast.Unparen(e.Fun).(*ast.Ident); isIdent && isBuiltin(p, id) && (id.Name == "len" || id.Name == "cap") {
			return math.MaxInt64, true
		}
	}
	if it, isInt := typeShape(p.TypeOf(e)); isInt && !it.signed {
		return it.max(), true
	}
	return 0, false
}

// shownRange renders what upper shows of e for a finding message, in
// the interval notation the messages have always used: "[0, hi]" for a
// bounded operand, the full range of its type otherwise, with a 64-bit
// endpoint printed as "-inf"/"+inf".
func (p *Package) shownRange(e ast.Expr) string {
	if v, isConst := p.constInt(e); isConst {
		return "[" + v.ExactString() + ", " + v.ExactString() + "]"
	}
	lo := "0"
	hi, ok := p.upper(e)
	if !ok {
		it, isInt := typeShape(p.TypeOf(e))
		if !isInt || it.bits == 64 {
			return "[-inf, +inf]"
		}
		hi = it.max()
		lo = "-" + strconv.FormatUint(hi+1, 10)
	}
	if hi >= math.MaxInt64 {
		return "[" + lo + ", +inf]"
	}
	return "[" + lo + ", " + strconv.FormatUint(hi, 10) + "]"
}

// constInt reads the type checker's value for an integer constant
// expression (named constants, iota, folded literals, len of an array).
func (p *Package) constInt(e ast.Expr) (constant.Value, bool) {
	for _, info := range []*types.Info{p.Info, p.XInfo} {
		if info == nil {
			continue
		}
		if tv, ok := info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
			return tv.Value, true
		}
	}
	return nil, false
}

// calleeObject resolves what a call's function expression names: a
// *types.TypeName for a conversion, a *types.Func for a declared
// function or method, nil for anything else (a func value, a literal).
func (p *Package) calleeObject(call *ast.CallExpr) types.Object {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.ObjectOf(f)
	case *ast.SelectorExpr:
		return p.ObjectOf(f.Sel)
	}
	return nil
}

// --- integer shapes -----------------------------------------------------

// intType is an integer type's machine shape. int, uint and uintptr are
// modelled at 64 bits (the repository's supported targets; CI's
// GOARCH=386 build only pins that the tree compiles there).
type intType struct {
	bits   int
	signed bool
}

// typeShape resolves a go/types type to its integer shape; ok is false
// for non-integer types.
func typeShape(t types.Type) (intType, bool) {
	if t == nil {
		return intType{}, false
	}
	b, okb := t.Underlying().(*types.Basic)
	if !okb {
		return intType{}, false
	}
	switch b.Kind() {
	case types.Int8:
		return intType{8, true}, true
	case types.Int16:
		return intType{16, true}, true
	case types.Int32, types.UntypedRune:
		return intType{32, true}, true
	case types.Int, types.Int64, types.UntypedInt:
		return intType{64, true}, true
	case types.Uint8:
		return intType{8, false}, true
	case types.Uint16:
		return intType{16, false}, true
	case types.Uint32:
		return intType{32, false}, true
	case types.Uint, types.Uint64, types.Uintptr:
		return intType{64, false}, true
	}
	return intType{}, false
}

// max is the largest value of the shape.
func (it intType) max() uint64 {
	if it.signed {
		return uint64(1)<<(it.bits-1) - 1
	}
	return ^uint64(0) >> (64 - it.bits)
}

// String renders a shape for messages.
func (it intType) String() string {
	if it.signed {
		return "int" + strconv.Itoa(it.bits)
	}
	return "uint" + strconv.Itoa(it.bits)
}

// shapeFits reports whether every value of shape a is representable in
// shape b (so the conversion is statically lossless).
func shapeFits(a, b intType) bool {
	if a.signed == b.signed {
		return a.bits <= b.bits
	}
	return !a.signed && a.bits < b.bits // uintN fits intM iff M > N; signed into unsigned can drop negatives
}
