package nic

import (
	"bytes"
	"testing"
	"testing/quick"

	"metro/internal/word"
)

func TestBuildHeaderHW0Packing(t *testing.T) {
	// Figure-1 style: 1+1+2 bits pack into a single 8-bit route word.
	h := HeaderSpec{Stages: []StageHeader{
		{DirBits: 1}, {DirBits: 1}, {DirBits: 2},
	}}
	words := h.AppendBuild(nil, mustWidth(8), []int{1, 0, 3})
	if len(words) != 1 {
		t.Fatalf("header = %v, want one word", words)
	}
	w := words[0]
	if w.Kind != word.Route || w.Bits != 4 {
		t.Fatalf("header word = %v, want ROUTE with 4 bits", w)
	}
	// Stage order: stage 0 digit in the low bits.
	if w.Payload != 0b1101 {
		t.Fatalf("payload = %#b, want 0b1101 (digits 1,0,3 low-first)", w.Payload)
	}
}

func TestBuildHeaderSplitsAtWordBoundary(t *testing.T) {
	// 3 stages of 3 bits on a 4-bit channel: each word fits only one
	// stage's digits (3+3 > 4), so three words result.
	h := HeaderSpec{Stages: []StageHeader{
		{DirBits: 3}, {DirBits: 3}, {DirBits: 3},
	}}
	words := h.AppendBuild(nil, mustWidth(4), []int{5, 2, 7})
	if len(words) != 3 {
		t.Fatalf("header = %v, want three words", words)
	}
	for i, want := range []uint32{5, 2, 7} {
		if words[i].Payload != want || words[i].Bits != 3 {
			t.Fatalf("word %d = %v, want %d/3b", i, words[i], want)
		}
	}
}

func TestBuildHeaderHW2(t *testing.T) {
	h := HeaderSpec{Stages: []StageHeader{
		{DirBits: 2, HeaderWords: 2},
		{DirBits: 2, HeaderWords: 2},
	}}
	words := h.AppendBuild(nil, mustWidth(8), []int{3, 1})
	if len(words) != 4 {
		t.Fatalf("header = %v, want 4 words (2 per stage)", words)
	}
	if words[0].Kind != word.Route || words[0].Payload != 3 {
		t.Fatalf("stage 0 route word = %v", words[0])
	}
	if words[1].Kind != word.HeaderPad {
		t.Fatalf("stage 0 pad = %v", words[1])
	}
	if words[2].Kind != word.Route || words[2].Payload != 1 {
		t.Fatalf("stage 1 route word = %v", words[2])
	}
}

func TestBuildHeaderMixedModes(t *testing.T) {
	h := HeaderSpec{Stages: []StageHeader{
		{DirBits: 2},                 // hw=0
		{DirBits: 3, HeaderWords: 1}, // hw=1
		{DirBits: 1},                 // hw=0
	}}
	words := h.AppendBuild(nil, mustWidth(8), []int{2, 5, 1})
	// Stage 0 bits flush before the hw>=1 stage; stage 2 starts fresh.
	if len(words) != 3 {
		t.Fatalf("header = %v, want 3 words", words)
	}
	if words[0].Bits != 2 || words[0].Payload != 2 {
		t.Fatalf("word 0 = %v", words[0])
	}
	if words[1].Payload != 5 || words[1].Bits != 3 {
		t.Fatalf("word 1 = %v", words[1])
	}
	if words[2].Bits != 1 || words[2].Payload != 1 {
		t.Fatalf("word 2 = %v", words[2])
	}
}

// TestStripChainConsumesEverything verifies that stripping stage by stage
// consumes exactly the header, leaving the payload for the destination.
func TestStripChainConsumesEverything(t *testing.T) {
	specs := []struct {
		width int
		h     HeaderSpec
	}{
		{8, HeaderSpec{Stages: []StageHeader{{DirBits: 1}, {DirBits: 1}, {DirBits: 2}}}},
		{4, HeaderSpec{Stages: []StageHeader{{DirBits: 2}, {DirBits: 2}, {DirBits: 2}}}},
		{8, HeaderSpec{Stages: []StageHeader{
			{DirBits: 2, HeaderWords: 1}, {DirBits: 2, HeaderWords: 1}}}},
		{8, HeaderSpec{Stages: []StageHeader{
			{DirBits: 2, HeaderWords: 3}, {DirBits: 3, HeaderWords: 3}}}},
	}
	for si, spec := range specs {
		h, w := spec.h, mustWidth(spec.width)
		digits := make([]int, len(h.Stages))
		for i, st := range h.Stages {
			digits[i] = (1 << uint(st.DirBits)) - 1 // max digit
		}
		payload := []word.Word{word.MakeData(0xA, w), word.MakeData(0x5, w)}
		stream := append(h.AppendBuild(nil, w, digits), payload...)
		for s := range h.Stages {
			// The first word each stage sees must be a usable ROUTE word.
			if h.Stages[s].HeaderWords == 0 {
				first := firstContent(stream)
				if first.Kind != word.Route || first.Bits < h.Stages[s].DirBits {
					t.Fatalf("spec %d stage %d sees %v", si, s, first)
				}
				dir := int(first.Payload) & ((1 << uint(h.Stages[s].DirBits)) - 1)
				if dir != digits[s] {
					t.Fatalf("spec %d stage %d decodes digit %d, want %d", si, s, dir, digits[s])
				}
			} else {
				if stream[0].Kind != word.Route {
					t.Fatalf("spec %d stage %d sees %v", si, s, stream[0])
				}
				if int(stream[0].Payload) != digits[s] {
					t.Fatalf("spec %d stage %d decodes %d, want %d", si, s, stream[0].Payload, digits[s])
				}
			}
			stream = h.stripStageInPlace(stream, s)
		}
		if len(stream) != len(payload) {
			t.Fatalf("spec %d: %d words after strip chain, want %d: %v", si, len(stream), len(payload), stream)
		}
		for i := range payload {
			if stream[i] != payload[i] {
				t.Fatalf("spec %d: payload corrupted: %v", si, stream)
			}
		}
	}
}

func firstContent(ws []word.Word) word.Word {
	for _, w := range ws {
		if !w.IsEmpty() {
			return w
		}
	}
	return word.Word{}
}

func TestExpectedStageChecksumsMatchManual(t *testing.T) {
	h := HeaderSpec{Stages: []StageHeader{{DirBits: 1}, {DirBits: 2}}}
	stream := append(h.AppendBuild(nil, mustWidth(8), []int{1, 2}), word.MakeData(0x42, mustWidth(8)))
	sums := h.AppendExpectedStageChecksums(nil, stream, 1, mustWidth(8))
	if len(sums) != 2 {
		t.Fatalf("sums = %v", sums)
	}
	var ck0 word.Checksum
	for _, w := range stream {
		ck0.Add(w)
	}
	if sums[0] != ck0.Sum() {
		t.Fatalf("stage 0 sum %#x != %#x", sums[0], ck0.Sum())
	}
	var ck1 word.Checksum
	for _, w := range h.stripStageInPlace(stream, 0) {
		ck1.Add(w)
	}
	if sums[1] != ck1.Sum() {
		t.Fatalf("stage 1 sum %#x != %#x", sums[1], ck1.Sum())
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(data []byte, widthSeed uint8) bool {
		widths := []int{1, 2, 4, 8, 12, 16, 24, 32}
		w := widths[int(widthSeed)%len(widths)]
		words := AppendPackBytes(nil, data, mustWidth(w))
		back := UnpackBytes(words, mustWidth(w))
		// The payload must round-trip exactly; wide channels may append
		// zero padding up to one channel word's worth of bytes.
		if len(back) < len(data) || !bytes.Equal(back[:len(data)], data) {
			return false
		}
		pad := back[len(data):]
		if len(pad)*8 >= w {
			return false // more than one word of padding is a bug
		}
		for _, b := range pad {
			if b != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackBytesWidths(t *testing.T) {
	// w=4: each byte becomes two nibbles, low first.
	words := AppendPackBytes(nil, []byte{0xAB}, mustWidth(4))
	if len(words) != 2 || words[0].Payload != 0xB || words[1].Payload != 0xA {
		t.Fatalf("nibble packing = %v", words)
	}
	// w=8: identity.
	words = AppendPackBytes(nil, []byte{0x12, 0x34}, mustWidth(8))
	if len(words) != 2 || words[0].Payload != 0x12 {
		t.Fatalf("byte packing = %v", words)
	}
	// w=1: bits, LSB first.
	words = AppendPackBytes(nil, []byte{0b10000001}, mustWidth(1))
	if len(words) != 8 || words[0].Payload != 1 || words[7].Payload != 1 || words[3].Payload != 0 {
		t.Fatalf("bit packing = %v", words)
	}
}

func TestHeaderValidate(t *testing.T) {
	good := HeaderSpec{Stages: []StageHeader{{DirBits: 2}}}
	if err := good.Validate(mustWidth(8)); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []struct {
		h    HeaderSpec
		want string
	}{
		{HeaderSpec{Stages: []StageHeader{{DirBits: 6}}}, "nic: stage 0 needs 6 routing bits, width is 4"},
		{HeaderSpec{Stages: []StageHeader{{DirBits: 2, HeaderWords: -1}}}, "nic: stage 0 has negative header words"},
	}
	for i, c := range bad {
		if err := c.h.Validate(mustWidth(4)); err == nil || err.Error() != c.want {
			t.Errorf("bad spec %d: error %v, want %q", i, err, c.want)
		}
	}
}

// TestHeaderStripChainProperty drives Build/stripStageInPlace over randomized
// stage configurations: the strip chain must decode every digit correctly
// at its own stage and consume exactly the header.
func TestHeaderStripChainProperty(t *testing.T) {
	f := func(widthSeed, stageSeed uint8, digitSeed uint32) bool {
		widths := []int{4, 6, 8, 12, 16}
		width := widths[int(widthSeed)%len(widths)]
		nStages := int(stageSeed)%5 + 1
		var h HeaderSpec
		w := mustWidth(width)
		digits := make([]int, nStages)
		seed := digitSeed
		next := func(n int) int {
			seed = seed*1664525 + 1013904223
			return int(seed>>16) % n
		}
		for s := 0; s < nStages; s++ {
			bits := next(3) + 1 // 1..3 dir bits
			if bits > width {
				bits = width
			}
			hw := 0
			if next(4) == 0 {
				hw = next(3) + 1 // occasional hw >= 1 stage
			}
			h.Stages = append(h.Stages, StageHeader{DirBits: uint8(bits), HeaderWords: hw})
			digits[s] = next(1 << uint(bits))
		}
		if h.Validate(w) != nil {
			return true
		}
		stream := append(h.AppendBuild(nil, w, digits), word.MakeData(0x3, w))
		for s, st := range h.Stages {
			var got int
			if st.HeaderWords == 0 {
				first := firstContent(stream)
				if first.Kind != word.Route || first.Bits < st.DirBits {
					return false
				}
				got = int(first.Payload) & ((1 << uint(st.DirBits)) - 1)
			} else {
				if len(stream) == 0 || stream[0].Kind != word.Route {
					return false
				}
				got = int(stream[0].Payload)
			}
			if got != digits[s] {
				return false
			}
			stream = h.stripStageInPlace(stream, s)
		}
		// Only the payload word remains.
		return len(stream) == 1 && stream[0].Kind == word.Data
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestExpectedChecksumsChangeWithCorruption: flipping any payload bit of
// the sent stream must change the expected checksum of every stage that
// sees the word (the property fault localization relies on).
func TestExpectedChecksumsChangeWithCorruption(t *testing.T) {
	h := HeaderSpec{Stages: []StageHeader{{DirBits: 1}, {DirBits: 1}, {DirBits: 2}}}
	stream := append(h.AppendBuild(nil, mustWidth(8), []int{1, 0, 2}),
		word.MakeData(0x10, mustWidth(8)), word.MakeData(0x20, mustWidth(8)))
	clean := h.AppendExpectedStageChecksums(nil, stream, 1, mustWidth(8))
	corrupt := append([]word.Word(nil), stream...)
	corrupt[len(corrupt)-1].Payload ^= 0x1
	dirty := h.AppendExpectedStageChecksums(nil, corrupt, 1, mustWidth(8))
	for s := range clean {
		if clean[s] == dirty[s] {
			t.Fatalf("stage %d checksum insensitive to payload corruption", s)
		}
	}
}
