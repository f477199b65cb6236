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
// value.
func ChecksumWords(w Width) int { return (w.Bits() + 7) / w.Bits() }

// AppendChecksum appends the ChecksumWords(w) channel words carrying a
// CRC-8 value to dst, least-significant chunk first.
//
//metrovet:alloc appends into caller-owned scratch sized for the stream; steady state reuses capacity
func AppendChecksum(dst []Word, sum uint8, w Width) []Word {
	for i := 0; i < ChecksumWords(w); i++ {
		dst = append(dst, ChecksumChunk(sum, i, w))
	}
	return dst
}

// ChecksumChunk returns word i, for i < ChecksumWords(w), of the words
// carrying a CRC-8 value, as AppendChecksum appends them.
func ChecksumChunk(sum uint8, i int, w Width) Word {
	// i*w.Bits() is below 8 for every such i (0 at 8 bits and wider), where
	// & 7 is the identity; the & 7 is what shows the shift its bound.
	return Word{Kind: ChecksumWord, Payload: uint32(sum) >> (i * w.Bits() & 7) & Mask(w)}
}

// JoinChecksum reassembles a CRC-8 value from channel words produced by
// AppendChecksum. Words beyond the CRC-8 width are ignored.
func JoinChecksum(words []Word, w Width) uint8 {
	var v uint32
	shift := 0
	for _, x := range words {
		// The break below keeps shift in [0, 7], where & 7 is the
		// identity; the & 7 is what shows the shift its bound.
		v |= (x.Payload & Mask(w)) << (shift & 7)
		shift += w.Bits()
		if shift >= 8 {
			break
		}
	}
	return uint8(v & 0xff)
}
