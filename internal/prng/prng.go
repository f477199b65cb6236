// Package prng provides the pseudo-random bit source, an LFSR, that METRO
// routers draw on for stochastic output-port selection.
//
// The METRO architecture requires each routing component to generate one
// random output bit stream and to accept one or more random input bits
// (architecture parameter ri). Width cascading depends on *shared
// randomness*: every member of a cascade group must see the identical random
// bit stream so that, given identical connection requests, all members make
// identical allocation decisions (paper, Section 5.1). The members' LFSRs
// are seeded alike: each reads the sequence of bits a fanned-out source
// would hand it, at its own pace, with no state in common.
//
// An LFSR is a deterministic function of its seed, making every
// simulation in this repository reproducible bit for bit.
package prng

// LFSR is a 32-bit maximal-length Galois linear feedback shift register,
// the kind of generator the METRO silicon would implement in a handful of
// gates. It is a value of four bytes: a router holds its own. The zero
// value is not valid; use NewLFSR.
type LFSR struct {
	state uint32
}

// lfsrTaps is a feedback polynomial giving a maximal-length (2^32-1)
// sequence: x^32 + x^22 + x^2 + x^1 + 1.
const lfsrTaps uint32 = 0x80200003

// NewLFSR returns an LFSR seeded from seed. A zero seed (the LFSR's one
// forbidden state) is remapped to a fixed nonzero constant.
func NewLFSR(seed uint32) LFSR {
	if seed == 0 {
		seed = 0x1d872b41
	}
	return LFSR{state: seed}
}

// NextBit advances the register and returns the output bit.
func (l *LFSR) NextBit() uint32 {
	out := l.state & 1
	l.state >>= 1
	if out != 0 {
		l.state ^= lfsrTaps
	}
	return out
}

// NextBits returns the next n bits, first bit in the least-significant
// position. n is clamped to [0, 32] (a runtime contract, held by
// TestNextBitsWidthAndClamp), so i stays in [0, 31], where & 31 is the
// identity; the & 31 is what shows the shift its bound.
func (l *LFSR) NextBits(n int) uint32 {
	if n < 0 {
		n = 0
	}
	if n > 32 {
		n = 32
	}
	var v uint32
	for i := 0; i < n; i++ {
		v |= l.NextBit() << (i & 31)
	}
	return v
}
