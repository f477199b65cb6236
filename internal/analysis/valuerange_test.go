package analysis

import "testing"

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

func TestTruncatingConversionProvenByMaskAndGuard(t *testing.T) {
	got := runRule(t, TruncatingConversion(), "metro/internal/core", map[string]string{
		"a.go": `package core

type comp struct {
	tag uint8
	cnt uint16
}

func (c *comp) Eval(cycle uint64) {
	c.tag = uint8(cycle & 0xff)  // masked: proven [0, 255]
	v := cycle % 1000
	c.cnt = uint16(v)            // mod: proven [0, 999]
	if cycle < 200 {
		c.tag = uint8(cycle) // guarded: proven [0, 199]
	}
}

func (c *comp) Commit(cycle uint64) {}
`,
	})
	wantFindings(t, got, "truncating-conversion")
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
	// A slice index is nonnegative; a map key is whatever was stored.
	got := runRule(t, TruncatingConversion(), "metro/internal/core", map[string]string{
		"a.go": `package core

type comp struct {
	m   map[int]int
	s   []int
	acc uint64
}

func (c *comp) Eval(cycle uint64) {
	for i := range c.s {
		c.acc += uint64(i) // slice index: proven nonnegative
	}
	for k := range c.m {
		c.acc += uint64(k) // line 14: a map key can be negative
	}
}

func (c *comp) Commit(cycle uint64) {}
`,
	})
	wantFindings(t, got, "truncating-conversion", [2]any{"a.go", 14})
}

func TestTruncatingConversionCallResultsAreUnknown(t *testing.T) {
	// Nothing flows across a call: a result reads as its type's full
	// range, through a tuple assignment too (where a uint64 must stay
	// wide, not collapse to [0, MaxInt64]).
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
	c.acc = c.acc >> 1           // constant: proven
	if c.w >= 0 && c.w < 32 {
		c.acc >>= uint(c.w)      // guarded: proven
	}
	var v uint64 = cycle << 40   // 40 < 64: proven for a uint64 operand
	_ = v
}

func (c *comp) Commit(cycle uint64) {}
`,
	})
	wantFindings(t, got, "width-contract", [2]any{"a.go", 9})
}

func TestWidthContractWordCallSites(t *testing.T) {
	prog := loadFixtureProgram(t,
		fixturePkg{path: "metro/internal/word", files: map[string]string{
			"word.go": `package word

// Mask returns a bit mask covering a width-bit payload.
func Mask(width int) uint32 {
	if width >= 32 {
		return ^uint32(0)
	}
	if width < 0 {
		return 0
	}
	return (1 << uint(width)) - 1
}

// ChecksumWords returns the word count for a width-bit channel.
func ChecksumWords(width int) int {
	if width <= 0 {
		return 0
	}
	n := 8 / width
	if 8%width != 0 {
		n++
	}
	return n
}
`,
		}},
		fixturePkg{path: "metro/internal/core", files: map[string]string{
			"a.go": `package core

import "metro/internal/word"

type comp struct {
	w    int
	mask uint32
}

func (c *comp) Eval(cycle uint64) {
	c.mask = word.Mask(c.w) // line 11: width unconstrained
	c.mask = word.Mask(16)  // constant in [1, 32]: proven
	if c.w >= 1 && c.w <= 32 {
		c.mask = word.Mask(c.w) // guarded: proven
	}
}

func (c *comp) Commit(cycle uint64) {
	_ = word.ChecksumWords(0) // line 19: 0 outside [1, 32]
}
`,
		}},
	)
	got := valueRangeFindings(prog, "width-contract")
	wantFindings(t, got, "width-contract",
		[2]any{"metro/internal/core/a.go", 11},
		[2]any{"metro/internal/core/a.go", 19},
	)
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

// --- shared machinery ---------------------------------------------------

func TestValueRangeLoopConvergence(t *testing.T) {
	// The JoinChecksum shape: shift starts at 0, grows by a bounded
	// width, and the loop breaks before it reaches 8 — the fixpoint must
	// prove shift stays within [0, 7].
	got := runRule(t, WidthContract(), "metro/internal/core", map[string]string{
		"a.go": `package core

type comp struct{ acc uint32 }

func (c *comp) Eval(cycle uint64) {
	shift := 0
	for i := 0; i < 64; i++ {
		c.acc |= 1 << uint(shift) // proven: shift in [0, 7]
		shift += 3
		if shift >= 8 {
			break
		}
	}
}

func (c *comp) Commit(cycle uint64) {}
`,
	})
	wantFindings(t, got, "width-contract")
}

func TestValueRangeOnlyHotPathIsChecked(t *testing.T) {
	// The same hazards outside the Eval/Commit-reachable region are out
	// of scope for both rules.
	files := map[string]string{
		"a.go": `package core

type comp struct{ buf []int }

func (c *comp) Eval(cycle uint64)   {}
func (c *comp) Commit(cycle uint64) {}

func coldTool(c *comp, i int, v uint64) uint8 {
	_ = c.buf[i]
	return uint8(v)
}
`,
	}
	for _, a := range []*Analyzer{TruncatingConversion(), WidthContract()} {
		got := runRule(t, a, "metro/internal/core", files)
		wantFindings(t, got, a.Name)
	}
}
