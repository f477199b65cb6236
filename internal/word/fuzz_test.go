package word

import (
	"bytes"
	"testing"
)

// refCRC8 is an independent bitwise implementation of CRC-8 polynomial
// 0x07 — the differential oracle for the table-driven Checksum.
func refCRC8(data []byte) uint8 {
	var crc uint8
	for _, b := range data {
		crc ^= b
		for i := 0; i < 8; i++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// FuzzChecksum checks the table-driven CRC against the bitwise
// reference on arbitrary byte streams, and that Add over content words
// matches AddByte over their payload bytes while control words stay
// transparent.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0x07, 0x80})
	f.Add(bytes.Repeat([]byte{0xa5}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Checksum
		for _, b := range data {
			c.AddByte(b)
		}
		if got, want := c.Sum(), refCRC8(data); got != want {
			t.Fatalf("table CRC %#x, bitwise reference %#x over %d bytes", got, want, len(data))
		}

		// Content words checksum their payload byte; interleaved control
		// words must not disturb the running value.
		contentKinds := []Kind{Route, HeaderPad, Data, ChecksumWord}
		var viaWords Checksum
		for i, b := range data {
			viaWords.Add(Word{Kind: contentKinds[i%len(contentKinds)], Payload: uint32(b)})
			viaWords.Add(Word{Kind: DataIdle})
			viaWords.Add(Word{Kind: Turn})
		}
		if got, want := viaWords.Sum(), refCRC8(data); got != want {
			t.Fatalf("word-stream CRC %#x, reference %#x", got, want)
		}
	})
}

// FuzzChecksumSplitJoin checks that a CRC-8 value survives being split
// into channel words at any width, drawn from the fuzzed byte, and that
// the word count matches ChecksumWords.
func FuzzChecksumSplitJoin(f *testing.F) {
	f.Add(uint8(0), uint8(0))
	f.Add(uint8(0xff), uint8(2))
	f.Add(uint8(0x5a), uint8(7))
	f.Add(uint8(0xc3), uint8(15))
	f.Fuzz(func(t *testing.T, sum, wb uint8) {
		w, err := NewWidth(int(wb)%32 + 1)
		if err != nil {
			t.Fatal(err)
		}
		words := AppendChecksum(nil, sum, w)
		if len(words) != ChecksumWords(w) {
			t.Fatalf("width %d: %d words, ChecksumWords says %d", w.Bits(), len(words), ChecksumWords(w))
		}
		for i, cw := range words {
			if cw.Kind != ChecksumWord {
				t.Fatalf("width %d: word %d has kind %v", w.Bits(), i, cw.Kind)
			}
			if cw.Payload&^Mask(w) != 0 {
				t.Fatalf("width %d: word %d payload %#x exceeds channel mask", w.Bits(), i, cw.Payload)
			}
		}
		if got := JoinChecksum(words, w); got != sum {
			t.Fatalf("width %d: join(split(%#x)) = %#x", w.Bits(), sum, got)
		}
	})
}
