package metrofuzz

import "slices"

// Tagged payloads let the delivery and payload oracles attribute every
// destination-side delivery to the exact offered message, independent of
// the network's own end-to-end CRC: each payload carries a harness
// message ID, the source and destination endpoints, its declared length,
// deterministic filler derived from the ID, and an XOR guard byte. A
// misrouted, truncated, cross-wired or corrupted-but-CRC-colliding
// delivery fails to decode or decodes to the wrong destination, which is
// precisely what the oracle wants to see.
//
// Layout ([n]byte, n >= MinPayloadBytes):
//
//	[0:4]  message ID, little endian
//	[4]    source endpoint
//	[5]    destination endpoint
//	[6]    declared total length n
//	[7:n-1] filler: fillByte(id, i)
//	[n-1]  XOR of bytes [0:n-1]
//
// Wide logical channels pad payloads with trailing zero bytes
// (nic.UnpackBytes recovers whole words); the declared-length byte lets
// DecodePayload strip that padding while still rejecting truncation.

// AppendPayload appends the tagged payload for one offered message to dst
// and returns the extended slice.
//
//metrovet:truncate by design: the tag is the ID's little-endian bytes; src, dest and n fit a byte because Scenario.Validate bounds payloads to [8,64] and fuzz topologies keep endpoint counts far below 256
func AppendPayload(dst []byte, id uint32, src, dest, n int) []byte {
	if n < MinPayloadBytes {
		n = MinPayloadBytes
	}
	start := len(dst)
	dst = slices.Grow(dst, n)[:start+n]
	p := dst[start:]
	p[0] = byte(id)
	p[1] = byte(id >> 8)
	p[2] = byte(id >> 16)
	p[3] = byte(id >> 24)
	p[4] = byte(src)
	p[5] = byte(dest)
	p[6] = byte(n)
	for i := 7; i < n-1; i++ {
		p[i] = fillByte(id, i)
	}
	var x byte
	for _, b := range p[:n-1] {
		x ^= b
	}
	p[n-1] = x
	return dst
}

// DecodePayload validates a delivered payload and recovers its tag.
// Trailing zero bytes beyond the declared length are tolerated (channel
// padding); any other deviation reports ok = false.
func DecodePayload(buf []byte) (id uint32, src, dest int, ok bool) {
	if len(buf) < MinPayloadBytes {
		return 0, 0, 0, false
	}
	n := int(buf[6])
	if n < MinPayloadBytes || n > len(buf) {
		return 0, 0, 0, false
	}
	for _, b := range buf[n:] {
		if b != 0 {
			return 0, 0, 0, false
		}
	}
	var x byte
	for _, b := range buf[:n-1] {
		x ^= b
	}
	if x != buf[n-1] {
		return 0, 0, 0, false
	}
	id = uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24
	for i := 7; i < n-1; i++ {
		if buf[i] != fillByte(id, i) {
			return 0, 0, 0, false
		}
	}
	return id, int(buf[4]), int(buf[5]), true
}

// fillByte derives deterministic filler from the message ID and byte
// position — a cheap mix so adjacent messages and positions differ.
//
//metrovet:truncate by design: multiplicative hashing wraps
func fillByte(id uint32, i int) byte {
	v := id*2654435761 + uint32(i)*0x9e3779b9
	return byte(v >> 24)
}
