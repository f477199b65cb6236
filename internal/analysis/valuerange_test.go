package analysis

import (
	"go/ast"
	"maps"
	"math"
	"testing"
)

// --- what an expression shows ------------------------------------------

// upperFixture declares one operand of every kind upper tells apart;
// each table row below is an expression over them.
const upperFixture = `package core

const c12 = 12

func f(i, w int, i32 int32, u8 uint8, u32 uint32, u64 uint64, n uint, s []int, a [12]int) {
	m := i & 7
	_ = m
`

func TestUpperShapesAndRefusals(t *testing.T) {
	rows := []struct {
		expr  string
		hi    uint64
		shows bool // false: the expression shows no bound
	}{
		// A constant shows its value.
		{"7", 7, true},
		{"c12", 12, true},
		{"len(a)", 12, true},
		{"c12 >> 1 & 0xf", 6, true},
		// x & y shows the smaller bound either operand shows.
		{"i & 0xff", 0xff, true},
		{"0x1f & i", 0x1f, true},
		{"(u64 & 0xff)", 0xff, true},
		{"u32 & uint32(u8)", math.MaxUint32, true}, // a conversion shows only its type
		{"u64 & (1<<40 - 1) & 0xffff", 0xffff, true},
		// x >> c shows x's bound, shifted.
		{"u64 >> 48", 0xffff, true},
		{"u32 >> 28", 0xf, true},
		{"(i & 0xff) >> 4", 0xf, true},
		{"u64 >> 64", 0, true},
		// len, cap and unsigned types show their maximum.
		{"len(s)", math.MaxInt64, true},
		{"cap(s)", math.MaxInt64, true},
		{"u8", math.MaxUint8, true},
		{"u32", math.MaxUint32, true},
		{"u64", math.MaxUint64, true},
		{"n", math.MaxUint64, true},
		{"uint16(i)", math.MaxUint16, true},
		{"u32 >> n", math.MaxUint32, true}, // a non-constant count shows no more than the type
		{"u8 | 0xf", math.MaxUint8, true},  // so does an OR
		{"u32 % 8", math.MaxUint32, true},  // and a remainder
		// Refusals: nothing in the expression bounds it from both sides.
		{"i", 0, false},
		{"-1", 0, false},
		{"i >> 2", 0, false},
		{"i32 >> n", 0, false},
		{"i | 0xff", 0, false},
		{"i &^ 0xff", 0, false},
		{"i % 8", 0, false},
		{"i + 1", 0, false},
		{"min(w, 8)", 0, false},
		{"int(u8)", 0, false},
		{"m", 0, false}, // assigned "i & 7" two lines earlier: nothing flows between statements
	}
	src := upperFixture
	for _, r := range rows {
		src += "\t_ = " + r.expr + "\n"
	}
	src += "}\n"
	p := loadFixture(t, "metro/internal/core", map[string]string{"a.go": src})
	if len(p.TypeErrs) > 0 {
		t.Fatalf("fixture does not type-check: %v", p.TypeErrs)
	}
	body := p.Files[0].Decls[1].(*ast.FuncDecl).Body.List[2:] // past "m := ..." and "_ = m"
	if len(body) != len(rows) {
		t.Fatalf("fixture has %d statements for %d rows", len(body), len(rows))
	}
	for k, r := range rows {
		hi, ok := p.upper(body[k].(*ast.AssignStmt).Rhs[0])
		if ok != r.shows || (ok && hi != r.hi) {
			t.Errorf("upper(%s) = %d, %v; want %d, %v", r.expr, hi, ok, r.hi, r.shows)
		}
	}
}

// --- MV010 truncating-conversion ---------------------------------------

func TestTruncatingConversionFlagsUnprovenNarrowing(t *testing.T) {
	got := runRule(t, TruncatingConversion(), "metro/internal/core", map[string]string{
		"a.go": `package core

type comp struct {
	tag uint8
	seq uint16
}

func (c *comp) Eval(cycle uint64) {
	c.tag = uint8(cycle)        // line 9: cycle can exceed 255
	c.seq = uint16(cycle >> 48) // line 10: top 16 bits still span 0..65535, fits
}

func (c *comp) Commit(cycle uint64) {
	n := int(cycle)  // line 14: uint64 -> int64 can go negative? no — flags
	_ = n
}
`,
	})
	wantFindings(t, got, "truncating-conversion",
		[2]any{"a.go", 9},
		[2]any{"a.go", 14},
	)
}

func TestTruncatingConversionProvenByMaskNotByGuard(t *testing.T) {
	// The mask is in the operand; the remainder was taken a statement
	// earlier and the guard encloses the site, so neither is read.
	got := runRule(t, TruncatingConversion(), "metro/internal/core", map[string]string{
		"a.go": `package core

type comp struct {
	tag uint8
	cnt uint16
	buf []int
}

func (c *comp) Eval(cycle uint64) {
	c.tag = uint8(cycle & 0xff)  // masked: shown [0, 255]
	c.cnt = uint16(len(c.buf) & 0x3ff) // len under a mask: shown [0, 1023]
	_ = uint64(len(c.buf))       // len is nonnegative: fits uint64
	v := cycle % 1000
	c.cnt = uint16(v)            // line 14: the remainder is a statement away
	if cycle < 200 {
		c.tag = uint8(cycle) // line 16: the guard is not in the operand
	}
}

func (c *comp) Commit(cycle uint64) {}
`,
	})
	wantFindings(t, got, "truncating-conversion", [2]any{"a.go", 14}, [2]any{"a.go", 16})
}

func TestTruncatingConversionWideningIsSilent(t *testing.T) {
	got := runRule(t, TruncatingConversion(), "metro/internal/core", map[string]string{
		"a.go": `package core

type comp struct{ acc uint64 }

func (c *comp) Eval(cycle uint64) {
	var b uint8 = 7
	c.acc += uint64(b)   // widening, never lossy
	w := uint32(b)       // widening
	_ = int64(w)         // uint32 -> int64 always fits
	_ = uint8(300 >> 2)  // a constant conversion is the type checker's to reject
}

func (c *comp) Commit(cycle uint64) {}
`,
	})
	wantFindings(t, got, "truncating-conversion")
}

func TestTruncatingConversionValve(t *testing.T) {
	got := runRule(t, TruncatingConversion(), "metro/internal/core", map[string]string{
		"a.go": `package core

type comp struct{ tag uint8 }

func (c *comp) Eval(cycle uint64) {
	c.tag = uint8(cycle) //metrovet:truncate low byte is the epoch tag by design
}

// hash folds a cycle number; the doc valve covers the whole helper.
//
//metrovet:truncate checksum folding truncates by definition
func (c *comp) hash(cycle uint64) uint8 { return uint8(cycle * 31) }

func (c *comp) Commit(cycle uint64) { c.tag = c.hash(cycle) }
`,
	})
	wantFindings(t, got, "truncating-conversion")
}

func TestTruncatingConversionRangeKeys(t *testing.T) {
	// A range key is a variable like any other: that a slice index is
	// nonnegative is a fact about the loop, not the operand.
	got := runRule(t, TruncatingConversion(), "metro/internal/core", map[string]string{
		"a.go": `package core

type comp struct {
	m   map[int]int
	s   []int
	acc uint64
}

func (c *comp) Eval(cycle uint64) {
	for i := range c.s {
		c.acc += uint64(i) // line 11: nonnegative only by the loop's say-so
	}
	for k := range c.m {
		c.acc += uint64(k) // line 14: a map key can be negative
	}
}

func (c *comp) Commit(cycle uint64) {}
`,
	})
	wantFindings(t, got, "truncating-conversion", [2]any{"a.go", 11}, [2]any{"a.go", 14})
}

func TestTruncatingConversionCallResultsAreUnknown(t *testing.T) {
	// Nothing flows across a call: a result shows only its type.
	got := runRule(t, TruncatingConversion(), "metro/internal/core", map[string]string{
		"a.go": `package core

type comp struct{ acc int64 }

func (c *comp) Eval(cycle uint64) {
	hi, _ := split(cycle & 0xff)
	c.acc = int64(hi)           // line 7
	c.acc = int64(low(cycle))   // line 8
}

func (c *comp) Commit(cycle uint64) {}

func split(v uint64) (uint64, uint64) { return v, v }
func low(v uint64) uint64             { return v & 1 }
`,
	})
	wantFindings(t, got, "truncating-conversion", [2]any{"a.go", 7}, [2]any{"a.go", 8})
}

// --- MV012 width-contract ----------------------------------------------

func TestWidthContractShiftAmounts(t *testing.T) {
	got := runRule(t, WidthContract(), "metro/internal/core", map[string]string{
		"a.go": `package core

type comp struct {
	acc uint32
	w   int
}

func (c *comp) Eval(cycle uint64) {
	c.acc <<= uint(c.w)          // line 9: w unconstrained, uint(w) may be >= 32
	c.acc = c.acc >> 1           // constant: shown
	if c.w >= 0 && c.w < 32 {
		c.acc >>= uint(c.w)      // line 12: the guard is not in the amount
	}
	c.acc >>= c.w & 31           // masked signed count: shown
	c.acc <<= c.w & 63           // line 15: [0, 63] is too wide for 32 bits
	var v uint64 = cycle << 40   // 40 < 64: shown for a uint64 operand
	_ = v << (c.acc >> 27)       // a uint32 shifted down to 5 bits: shown
}

func (c *comp) Commit(cycle uint64) {}
`,
	})
	wantFindings(t, got, "width-contract", [2]any{"a.go", 9}, [2]any{"a.go", 12}, [2]any{"a.go", 15})
}

// TestValueRangeCountsSites pins the site counts the ledger's proven
// cells are checked against: every narrowing conversion and shift
// amount the pass visits is checked, and those its operand bounds are
// proven.
func TestValueRangeCountsSites(t *testing.T) {
	prog := loadFixtureProgram(t, fixturePkg{path: "metro/internal/core", files: map[string]string{
		"a.go": `package core

type comp struct {
	acc uint32
	w   int
	b   uint8
}

func (c *comp) Eval(cycle uint64) {
	c.acc <<= uint(c.w)  // a shift not proven, a conversion not proven
	c.acc >>= c.w & 31   // a shift proven
	c.b = uint8(c.acc)   // a conversion not proven
	c.b = uint8(c.w & 7) // a conversion proven
	c.acc = uint32(c.b)  // widening: no site
}

func (c *comp) Commit(cycle uint64) {}
`,
	}})
	valueRangeFindings(prog, "width-contract")
	want := map[string]SiteCount{
		"truncating-conversion": {Proven: 1, Checked: 3},
		"width-contract":        {Proven: 1, Checked: 2},
	}
	if !maps.Equal(prog.vr.sites, want) {
		t.Errorf("sites = %v, want %v", prog.vr.sites, want)
	}
}

func TestWidthContractValve(t *testing.T) {
	got := runRule(t, WidthContract(), "metro/internal/core", map[string]string{
		"a.go": `package core

type comp struct {
	acc uint32
	w   int
}

func (c *comp) Eval(cycle uint64) {
	c.acc <<= uint(c.w) //metrovet:width w is validated to 1..32 by the constructor
}

func (c *comp) Commit(cycle uint64) {}
`,
	})
	wantFindings(t, got, "width-contract")
}

func TestWidthContractLoopBoundIsNotRead(t *testing.T) {
	// The JoinChecksum shape: shift starts at 0, grows by a bounded
	// width, and the loop breaks before it reaches 8. That is a fact
	// about the loop; the amount has to say it itself.
	got := runRule(t, WidthContract(), "metro/internal/core", map[string]string{
		"a.go": `package core

type comp struct{ acc uint32 }

func (c *comp) Eval(cycle uint64) {
	shift := 0
	for i := 0; i < 64; i++ {
		c.acc |= 1 << uint(shift) // line 8: the loop keeps shift in [0, 7], the amount does not say so
		c.acc |= 1 << (shift & 7) // the same value, shown
		shift += 3
		if shift >= 8 {
			break
		}
	}
}

func (c *comp) Commit(cycle uint64) {}
`,
	})
	wantFindings(t, got, "width-contract", [2]any{"a.go", 8})
}

// --- shared machinery ---------------------------------------------------

func TestValueRangeOnlyHotPathIsChecked(t *testing.T) {
	// The same hazards outside the Eval/Commit-reachable region are out
	// of scope for both rules; a closure inside it is not.
	files := map[string]string{
		"a.go": `package core

type comp struct{ buf []int }

func (c *comp) Eval(cycle uint64) {
	f := func(v uint64, w uint) uint8 { return uint8(v) << w } // line 6: both rules
	_ = f
}
func (c *comp) Commit(cycle uint64) {}

func coldTool(c *comp, i int, v uint64) uint8 {
	_ = c.buf[i]
	return uint8(v) << uint(i)
}
`,
	}
	for _, a := range []*Analyzer{TruncatingConversion(), WidthContract()} {
		got := runRule(t, a, "metro/internal/core", files)
		wantFindings(t, got, a.Name, [2]any{"a.go", 6})
	}
}
