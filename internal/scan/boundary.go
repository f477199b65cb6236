package scan

import (
	"metro/internal/core"
	"metro/internal/link"
	"metro/internal/word"
)

// Boundary is a router's boundary-scan register: one cell of w bits per
// port, in the order [forward inputs 0..i-1][backward outputs 0..o-1].
//
//   - SAMPLE (Capture-DR) latches the words currently arriving at the
//     forward ports and the programmed output cells, without disturbing
//     operation — usable while the router routes live traffic.
//   - EXTEST (Update-DR) loads the output cells and begins driving them
//     onto the links of *disabled* backward ports, one word per cycle,
//     letting a test controller exercise an isolated link from one router
//     while sampling at its neighbor. Enabled ports are never driven, so
//     EXTEST cannot corrupt live traffic (the paper's requirement that a
//     region be testable while the rest of the system operates).
//
// The drive continues each simulation cycle until Release is called (or a
// new EXTEST update replaces the pattern). Boundary implements
// clock.Component; add it to the engine to make EXTEST drives visible to
// the clocked links.
type Boundary struct {
	router *core.Router
	width  word.Width
	out    []uint32 // backward-port output cells
	drive  bool
}

// NewBoundary builds the boundary register for a router.
func NewBoundary(r *core.Router) *Boundary {
	return &Boundary{
		router: r,
		width:  r.Width(),
		out:    make([]uint32, r.Config().Outputs),
	}
}

// Len implements Register.
func (b *Boundary) Len() int {
	cfg := b.router.Config()
	return (cfg.Inputs + cfg.Outputs) * b.width.Bits()
}

// Capture implements Register: SAMPLE of the live port pins.
func (b *Boundary) Capture() []bool {
	cfg := b.router.Config()
	bits := make([]bool, 0, b.Len())
	appendCell := func(v uint32) {
		bits = append(bits, UintToBits(uint64(v&word.Mask(b.width)), b.width.Bits())...)
	}
	for fp := 0; fp < cfg.Inputs; fp++ {
		v := uint32(0)
		if end := b.router.ForwardLink(fp); end != (link.End{}) {
			v = end.Recv().Payload
		}
		appendCell(v)
	}
	for bp := 0; bp < cfg.Outputs; bp++ {
		appendCell(b.out[bp])
	}
	return bits
}

// Update implements Register: EXTEST load of the output cells. Driving
// begins on the next simulation cycle and persists until Release.
func (b *Boundary) Update(bits []bool) {
	cfg := b.router.Config()
	width := b.width.Bits()
	pos := cfg.Inputs * width // skip the input cells
	for bp := 0; bp < cfg.Outputs; bp++ {
		var v uint64
		for i := 0; i < width && pos+i < len(bits); i++ {
			if bits[pos+i] {
				v |= 1 << uint(i)
			}
		}
		b.out[bp] = uint32(v)
		pos += width
	}
	b.drive = true
}

// Release stops EXTEST driving.
func (b *Boundary) Release() { b.drive = false }

// Driving reports whether EXTEST output cells are being driven.
func (b *Boundary) Driving() bool { return b.drive }

// Eval implements clock.Component: while EXTEST is active, drive the
// output cells onto every disabled backward port's link.
//
//metrovet:shared reads only its own router's settings and drives its links; a Boundary registers via Engine.Add, so it never runs concurrently with its router's Eval
func (b *Boundary) Eval(cycle uint64) {
	if !b.drive {
		return
	}
	for bp := 0; bp < b.router.Config().Outputs; bp++ {
		if b.router.BackwardEnabled(bp) {
			continue // never disturb live ports
		}
		if end := b.router.BackwardLink(bp); end != (link.End{}) {
			end.Send(word.MakeData(b.out[bp], b.width))
		}
	}
}

// InputCell extracts forward port fp's sampled value from a Capture image.
func (b *Boundary) InputCell(bits []bool, fp int) uint32 {
	width := b.width.Bits()
	start := fp * width
	var v uint64
	for i := 0; i < width && start+i < len(bits); i++ {
		if bits[start+i] {
			v |= 1 << uint(i)
		}
	}
	return uint32(v)
}

// OutputCellBits builds a full register image whose backward-port cells
// carry the given values (input cells zero), for shifting in under EXTEST.
func (b *Boundary) OutputCellBits(values map[int]uint32) []bool {
	cfg := b.router.Config()
	bits := make([]bool, b.Len())
	width := b.width.Bits()
	for bp, v := range values {
		start := (cfg.Inputs + bp) * width
		copy(bits[start:start+width], UintToBits(uint64(v&word.Mask(b.width)), width))
	}
	return bits
}
