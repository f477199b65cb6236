// Package badpkg is a deliberately non-conforming fixture: the golden
// tests for metrovet's text and -json emitters and the analysis cache
// point the tool at this package. It lives under a testdata directory so
// the Go toolchain and metrovet's own recursive tree walks both skip it;
// only an explicit pattern reaches it.
package badpkg

var hits int

// Gadget is a component whose Eval breaks the discipline on purpose: it
// allocates per cycle and, two call frames down, increments package-level
// state shared across every shard.
type Gadget struct{ buf []int }

func (g *Gadget) Eval(cycle uint64) {
	g.buf = make([]int, 8)
	bump()
}

func (g *Gadget) Commit(cycle uint64) {}

func bump() { count() }

func count() { hits++ }

// Slicer breaks the value-range rules on purpose: byte(cycle) truncates
// an unbounded counter (MV010), and the shift amount on a 32-bit operand
// is never proven below 32 (MV012). The unbounded lut index is left for
// the compiler's -bce gate, which is not pointed at this package.
type Slicer struct {
	lut  []byte
	bits int
	n    int
}

func (s *Slicer) Eval(cycle uint64) {
	s.n++
	if len(s.lut) != 0 {
		s.lut[s.n] = byte(cycle)
	}
	hits += int(uint32(1) << uint(s.bits))
}

func (s *Slicer) Commit(cycle uint64) {}
