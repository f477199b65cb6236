package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// FuzzUpperBoundSoundness is the whole soundness argument of the
// MV010/MV012 prover, executed: it writes a random expression over two
// operands a and b out of the shapes upper reads (constants, &, >> by a
// constant, len and cap, every integer type) mixed with ones it must
// see through to the type (|, +), type-checks it, and demands that the
// value the expression takes on the concrete operands lies in [0, hi]
// whenever upper claims a bound. prog drives the expression's shape.
func FuzzUpperBoundSoundness(f *testing.F) {
	f.Add([]byte{0, 3, 0, 2, 200, 3}, uint64(0xdeadbeefcafe), uint64(77))        // int: a & const
	f.Add([]byte{6, 4, 40, 0}, ^uint64(0), uint64(0))                            // uint64: a >> 40
	f.Add([]byte{2, 4, 3, 3, 1, 2, 90, 0}, uint64(0x80), uint64(0xff))           // int8: (b & const) >> 3, sign bit set
	f.Add([]byte{0, 3, 7, 0, 4, 2, 0}, uint64(1)<<63, uint64(4095))              // int: len(s) & (a >> 2), a negative
	f.Add([]byte{5, 3, 5, 0, 1, 4, 70, 6, 0, 1}, uint64(0x12345678), ^uint64(0)) // uint32: (a|b) & ((a+b) >> 70)
	f.Add([]byte{1, 4, 64, 3, 0, 2, 255, 0}, ^uint64(0), uint64(0))              // int32: (a & const) >> 64
	f.Fuzz(func(t *testing.T, prog []byte, a, b uint64) {
		g := exprGen{prog: prog}
		g.typ = fuzzTypes[int(g.next())%len(fuzzTypes)]
		g.a, g.b, g.slen = g.trunc(a), g.trunc(b), b%4096
		src, val := g.expr(0)

		file := fmt.Sprintf("package p\n\nfunc f(a, b %s, s []int) {\n\tvar _ %s = %s\n}\n", g.typ.name, g.typ.name, src)
		fset := token.NewFileSet()
		parsed, err := parser.ParseFile(fset, "p.go", file, 0)
		if err != nil {
			t.Fatalf("generated source does not parse: %v\n%s", err, file)
		}
		p := &Package{ImportPath: "p", Fset: fset, Files: []*ast.File{parsed}, Info: newInfo()}
		if _, err := (&types.Config{}).Check("p", fset, p.Files, p.Info); err != nil {
			t.Skip("a constant subexpression overflows the type: the compiler rejects it") // e.g. (200 + 100) & a at uint8
		}
		decl := parsed.Decls[0].(*ast.FuncDecl).Body.List[0].(*ast.DeclStmt).Decl.(*ast.GenDecl)
		hi, ok := p.upper(decl.Specs[0].(*ast.ValueSpec).Values[0])
		if !ok {
			return // no claim, nothing to hold it to
		}
		if (g.typ.signed && int64(val) < 0) || val > hi {
			t.Fatalf("upper(%s) claims [0, %d], but a=%#x b=%#x len(s)=%d gives %d (%s)",
				src, hi, g.a, g.b, g.slen, int64(val), g.typ.name)
		}
	})
}

// fuzzType is an operand type an expression is generated at.
type fuzzType struct {
	name   string
	bits   int
	signed bool
}

var fuzzTypes = []fuzzType{
	{"int", 64, true}, {"int32", 32, true}, {"int8", 8, true}, {"uint8", 8, false},
	{"uint16", 16, false}, {"uint32", 32, false}, {"uint64", 64, false}, {"uint", 64, false},
}

// exprGen writes an expression and evaluates it in the same walk. A
// value is held the way the machine holds it: the type's bits, sign- or
// zero-extended to 64.
type exprGen struct {
	prog       []byte
	typ        fuzzType
	a, b, slen uint64
}

func (g *exprGen) next() byte {
	if len(g.prog) == 0 {
		return 0
	}
	c := g.prog[0]
	g.prog = g.prog[1:]
	return c
}

// trunc wraps v to the generator's type, as Go's arithmetic does.
func (g *exprGen) trunc(v uint64) uint64 {
	drop := 64 - g.typ.bits
	if g.typ.signed {
		return uint64(int64(v<<drop) >> drop)
	}
	return v << drop >> drop
}

func (g *exprGen) expr(depth int) (src string, val uint64) {
	op := g.next() % 8
	if depth == 4 {
		op %= 3
	}
	switch op {
	case 0:
		return "a", g.a
	case 1:
		return "b", g.b
	case 2: // a nonnegative constant of the type
		c := uint64(g.next()) << (g.next() % 64)
		c &= 1<<(g.typ.bits-1) - 1
		return fmt.Sprint(c), c
	case 3, 5, 6:
		x, xv := g.expr(depth + 1)
		y, yv := g.expr(depth + 1)
		switch op {
		case 3:
			return "(" + x + " & " + y + ")", xv & yv
		case 5:
			return "(" + x + " | " + y + ")", xv | yv
		}
		return "(" + x + " + " + y + ")", g.trunc(xv + yv)
	case 4: // a constant count, past the operand width too
		k := g.next() % 72
		x, xv := g.expr(depth + 1)
		src = fmt.Sprintf("(%s >> %d)", x, k)
		if g.typ.signed {
			return src, uint64(int64(xv) >> k)
		}
		return src, xv >> k
	}
	if g.typ.name != "int" { // len has type int
		return "a", g.a
	}
	if g.next()%2 == 0 {
		return "len(s)", g.slen
	}
	return "cap(s)", g.slen + 3
}
