package word

// Checksum is the running CRC-8 (polynomial x^8+x^2+x+1, i.e. 0x07) that
// METRO routers compute over the words they forward and that endpoints
// compute over message payloads. Each router reports its checksum in the
// reversed stream after a TURN, which lets a source localize a corrupting
// link by finding the first router whose reported checksum disagrees with
// the expected value.
//
// The zero value is ready to use.
type Checksum struct {
	crc uint8
}

// crc8Table is the byte-at-a-time table for polynomial 0x07 (CRC-8/ATM).
var crc8Table = func() [256]uint8 {
	var t [256]uint8
	for i := 0; i < 256; i++ {
		c := uint8(i)
		for b := 0; b < 8; b++ {
			if c&0x80 != 0 {
				c = c<<1 ^ 0x07
			} else {
				c <<= 1
			}
		}
		t[i] = c
	}
	return t
}()

// Reset clears the running checksum, as happens in a router at each
// connection reversal (the checksum covers one transmission segment).
func (c *Checksum) Reset() { c.crc = 0 }

// AddByte folds one byte into the checksum.
func (c *Checksum) AddByte(b uint8) { c.crc = crc8Table[c.crc^b] }

// Add folds a word into the checksum. Only stream content words contribute:
// Route, HeaderPad, Data and ChecksumWord payloads are covered, control
// words (DataIdle, Turn, Status, Drop, Empty) are not, since idle fill and
// reversal tokens may legitimately differ between path segments.
func (c *Checksum) Add(w Word) {
	switch w.Kind {
	case Route, HeaderPad, Data, ChecksumWord:
		c.AddByte(uint8(w.Payload & 0xff))
	case Empty, DataIdle, Turn, Status, Drop:
		// Control words are excluded from the segment checksum.
	}
}

// Sum returns the current CRC-8 value.
func (c *Checksum) Sum() uint8 { return c.crc }

// ChecksumWords returns the number of w-bit words needed to carry a CRC-8
// value on a channel of the given width.
func ChecksumWords(width int) int {
	if width <= 0 {
		return 0
	}
	n := 8 / width
	if 8%width != 0 {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

// AppendChecksum appends the ChecksumWords(width) channel words carrying a
// CRC-8 value to dst, least-significant chunk first. A nonpositive width
// carries no words (as ChecksumWords agrees) and widths past 32 behave
// exactly like 32.
//
//metrovet:alloc appends into caller-owned scratch sized for the stream; steady state reuses capacity
//metrovet:width the two guards clamp width into [1, 32] before any use, so the step min(width, 8) is in [1, 8]; a runtime contract, held by TestSplitJoinChecksumRoundTrip
func AppendChecksum(dst []Word, sum uint8, width int) []Word {
	if width < 1 {
		return dst
	}
	if width > 32 {
		width = 32
	}
	n := ChecksumWords(width)
	v := uint32(sum)
	for i := 0; i < n; i++ {
		dst = append(dst, Word{Kind: ChecksumWord, Payload: v & Mask(width)})
		// v holds a CRC-8, so shifting by 8 already clears it.
		v >>= min(width, 8)
	}
	return dst
}

// JoinChecksum reassembles a CRC-8 value from channel words produced by
// AppendChecksum. Words beyond the CRC-8 width are ignored; a
// nonpositive width masks every payload to zero, so the sum is zero.
//
//metrovet:width the two guards clamp width into [1, 32] before Mask sees it; a runtime contract, held by TestSplitJoinChecksumRoundTrip
func JoinChecksum(words []Word, width int) uint8 {
	if width < 1 {
		return 0
	}
	if width > 32 {
		width = 32
	}
	var v uint32
	shift := 0
	for _, w := range words {
		// The break below keeps shift in [0, 7], where & 7 is the
		// identity; the & 7 is what shows the shift its bound.
		v |= (w.Payload & Mask(width)) << (shift & 7)
		shift += width
		if shift >= 8 {
			break
		}
	}
	return uint8(v & 0xff)
}
