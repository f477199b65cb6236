// Package prng provides the pseudo-random bit sources used by METRO routers
// for stochastic output-port selection.
//
// The METRO architecture requires each routing component to generate one
// random output bit stream and to accept one or more random input bits
// (architecture parameter ri). Width cascading depends on *shared
// randomness*: every member of a cascade group must see the identical random
// bit stream so that, given identical connection requests, all members make
// identical allocation decisions (paper, Section 5.1). The Shared type
// models the off-chip fan-out of one bit stream to several consumers.
//
// All sources are deterministic functions of their seed, making every
// simulation in this repository reproducible bit for bit.
package prng

// Source supplies random bits to a router's allocation logic.
type Source interface {
	// NextBits returns the next n bits of the stream (0 <= n <= 32),
	// with the first-generated bit in the least-significant position.
	NextBits(n int) uint32
}

// LFSR is a 32-bit maximal-length Galois linear feedback shift register,
// the kind of generator the METRO silicon would implement in a handful of
// gates. The zero value is not valid; use NewLFSR.
type LFSR struct {
	state uint32
}

// lfsrTaps is a feedback polynomial giving a maximal-length (2^32-1)
// sequence: x^32 + x^22 + x^2 + x^1 + 1.
const lfsrTaps uint32 = 0x80200003

// NewLFSR returns an LFSR seeded from seed. A zero seed (the LFSR's one
// forbidden state) is remapped to a fixed nonzero constant.
func NewLFSR(seed uint32) *LFSR {
	if seed == 0 {
		seed = 0x1d872b41
	}
	return &LFSR{state: seed}
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

var _ Source = (*LFSR)(nil)

// Shared fans one underlying bit stream out to multiple consumers, modeling
// the shared random inputs wired to every member of a width-cascaded router
// group. Each Fork returns a Source with an independent cursor into the
// common stream: consumers that draw bits in the same pattern observe the
// same bits, which is exactly the property cascading relies on.
//
// Shared is not safe for concurrent use: every consumer of one Shared
// stream must evaluate on the same goroutine. With engine workers this
// is a co-location requirement — all routers drawing from one Shared
// stream must belong to a single kernel unit. A router column satisfies
// it by construction (its lanes are one unit, so they and their forks
// always evaluate together, as are a cascade.Group's members); any other
// fan-out must be packaged the same way.
type Shared struct {
	gen     *LFSR
	buf     []uint8 // one bit per element
	base    uint64  // stream index of buf[0]
	cursors []*forkCursor
}

type forkCursor struct {
	s   *Shared
	pos uint64
}

// NewShared returns a Shared stream driven by an LFSR with the given seed.
func NewShared(seed uint32) *Shared {
	return &Shared{gen: NewLFSR(seed)}
}

// Fork returns a new consumer of the shared stream, positioned at the
// current head of the stream.
func (s *Shared) Fork() Source {
	c := &forkCursor{s: s, pos: s.base + uint64(len(s.buf))}
	s.cursors = append(s.cursors, c)
	return c
}

// bitAt returns stream bit idx, generating and buffering as needed.
func (s *Shared) bitAt(idx uint64) uint32 {
	for s.base+uint64(len(s.buf)) <= idx {
		//metrovet:alloc amortized growth of the shared bit buffer; trim recycles the backing array
		s.buf = append(s.buf, uint8(s.gen.NextBit()&1))
	}
	return uint32(s.buf[idx-s.base])
}

// trim discards buffered bits already consumed by every cursor.
func (s *Shared) trim() {
	if len(s.cursors) == 0 {
		return
	}
	low := s.cursors[0].pos
	for _, c := range s.cursors[1:] {
		if c.pos < low {
			low = c.pos
		}
	}
	if low > s.base {
		drop := low - s.base
		//metrovet:alloc shifts within the existing backing array (append onto s.buf[:0]); never grows
		s.buf = append(s.buf[:0], s.buf[drop:]...)
		s.base = low
	}
}

// NextBits implements Source for a fork of the shared stream, with
// LFSR.NextBits's clamp and shift.
func (c *forkCursor) NextBits(n int) uint32 {
	if n < 0 {
		n = 0
	}
	if n > 32 {
		n = 32
	}
	var v uint32
	for i := 0; i < n; i++ {
		v |= c.s.bitAt(c.pos) << (i & 31)
		c.pos++
	}
	c.s.trim()
	return v
}
