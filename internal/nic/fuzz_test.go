package nic

import (
	"bytes"
	"testing"

	"metro/internal/word"
)

// FuzzPackUnpackBytes checks the bit-stream payload codec at every
// channel width, drawn from the fuzzed byte: unpacking a packed payload
// must return the original bytes followed only by the zero padding that
// word-granular channels introduce, and the word count must match the
// documented ceiling.
func FuzzPackUnpackBytes(f *testing.F) {
	f.Add([]byte(nil), uint8(7))
	f.Add([]byte{0x01}, uint8(0))
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef}, uint8(2))
	f.Add([]byte("source responsibility"), uint8(15))
	f.Add(bytes.Repeat([]byte{0xff}, 9), uint8(31))
	f.Fuzz(func(t *testing.T, payload []byte, wb uint8) {
		w := mustWidth(int(wb)%32 + 1)
		if len(payload) > 1<<12 {
			payload = payload[:1<<12]
		}
		words := AppendPackBytes(nil, payload, w)
		if want := (len(payload)*8 + w.Bits() - 1) / w.Bits(); len(words) != want {
			t.Fatalf("width %d: packed %d bytes into %d words, want %d", w.Bits(), len(payload), len(words), want)
		}
		for i, pw := range words {
			if pw.Kind != word.Data {
				t.Fatalf("width %d: word %d has kind %v", w.Bits(), i, pw.Kind)
			}
			if pw.Payload&^word.Mask(w) != 0 {
				t.Fatalf("width %d: word %d payload %#x exceeds channel mask", w.Bits(), i, pw.Payload)
			}
		}
		got := UnpackBytes(words, w)
		if len(got) < len(payload) {
			t.Fatalf("width %d: unpacked %d bytes from a %d-byte payload", w.Bits(), len(got), len(payload))
		}
		if !bytes.Equal(got[:len(payload)], payload) {
			t.Fatalf("width %d: payload corrupted through pack/unpack", w.Bits())
		}
		for i := len(payload); i < len(got); i++ {
			if got[i] != 0 {
				t.Fatalf("width %d: nonzero padding byte %#x at %d", w.Bits(), got[i], i)
			}
		}
	})
}

// FuzzHeaderBuildStrip derives a random header spec and digit vector
// from the input, builds the routing header, and checks that each
// stage sees its own digit at the stream head before stripStageInPlace
// consumes it — the consumption model core.Router implements — and
// that after every stage has stripped its share, exactly the payload
// words remain.
func FuzzHeaderBuildStrip(f *testing.F) {
	f.Add(8, []byte{0x21, 0x32, 0x13}, []byte{0xaa, 0x55})
	f.Add(4, []byte{0x02, 0x02, 0x12, 0x02}, []byte("ack"))
	f.Add(1, []byte{0x01, 0x11}, []byte{0x80})
	f.Add(16, []byte{0x26, 0x06}, []byte(nil))
	f.Fuzz(func(t *testing.T, width int, stageBytes, payload []byte) {
		w := width % 16
		if w < 0 {
			w = -w
		}
		w++ // [1,16]
		if len(stageBytes) > 6 {
			stageBytes = stageBytes[:6]
		}
		if len(payload) > 256 {
			payload = payload[:256]
		}
		maxDir := w
		if maxDir > 4 {
			maxDir = 4
		}
		var stages []StageHeader
		var digits []int
		for _, b := range stageBytes {
			// Every real stage consumes at least one routing bit (radix >= 2);
			// a 0-bit hw=0 stage would swallow a later stage's exhausted
			// route word, which is outside the modeled domain.
			dir := 1 + int(b)%maxDir          // [1, maxDir]
			hw := int(b>>4) % 3               // {0, 1, 2}
			digit := int(b>>2) & (1<<dir - 1) // < 2^dir
			stages = append(stages, StageHeader{DirBits: uint8(dir), HeaderWords: hw})
			digits = append(digits, digit)
		}
		h := HeaderSpec{Stages: stages}
		cw := mustWidth(w)
		if err := h.Validate(cw); err != nil {
			t.Fatalf("constructed spec invalid: %v", err)
		}

		data := AppendPackBytes(nil, payload, cw)
		stream := append(h.AppendBuild(nil, cw, digits), data...)
		if got, want := h.Words(cw), len(stream)-len(data); got != want {
			t.Fatalf("Words() = %d, Build made %d", got, want)
		}
		if sums := h.AppendExpectedStageChecksums(nil, stream, 1, cw); len(sums) != len(stages) {
			t.Fatalf("%d stage checksums for %d stages", len(sums), len(stages))
		}

		for s, st := range stages {
			if st.HeaderWords >= 1 {
				// Pipelined setup: the stage's digit rides alone in the
				// first word, followed by hw-1 padding words it consumes.
				if len(stream) == 0 || stream[0].Kind != word.Route {
					t.Fatalf("stage %d (hw=%d): stream head is not ROUTE", s, st.HeaderWords)
				}
				if got := int(stream[0].Payload); got != digits[s] {
					t.Fatalf("stage %d: head digit %d, want %d", s, got, digits[s])
				}
			} else if st.DirBits > 0 {
				// Bit stripping: the digit sits in the low bits of the
				// first ROUTE word.
				var head *word.Word
				for i := range stream {
					if stream[i].Kind == word.Route {
						head = &stream[i]
						break
					}
				}
				if head == nil {
					t.Fatalf("stage %d needs %d bits but no ROUTE word remains", s, st.DirBits)
				}
				if got := int(head.Payload) & (1<<st.DirBits - 1); got != digits[s] {
					t.Fatalf("stage %d: low bits %d, want digit %d", s, got, digits[s])
				}
			}
			stream = h.stripStageInPlace(stream, s)
		}

		// All routing material consumed; the payload words pass through
		// untouched.
		if len(stream) != len(data) {
			t.Fatalf("after all stages: %d words remain, want %d payload words", len(stream), len(data))
		}
		for i := range stream {
			if stream[i] != data[i] {
				t.Fatalf("payload word %d changed during header stripping: %v -> %v", i, data[i], stream[i])
			}
		}
		if got := UnpackBytes(stream, mustWidth(w)); !bytes.Equal(got[:len(payload)], payload) {
			t.Fatalf("payload corrupted after full strip")
		}
	})
}

// FuzzParserFeed hardens the reversed-stream parser against arbitrary
// word sequences: it must never panic, terminal states must absorb,
// and it must never report more router statuses than STATUS words fed.
// The third argument, a stage count the parser no longer takes, stays in
// the signature so the checked-in corpus still decodes.
func FuzzParserFeed(f *testing.F) {
	f.Add(8, 1, 2, []byte{byte(word.Status), 0, byte(word.ChecksumWord), 0x5a, byte(word.Turn), 0})
	f.Add(4, 2, 3, []byte{byte(word.Status), byte(word.StatusBlocked), byte(word.Drop), 0})
	f.Add(8, 1, 0, []byte{byte(word.Status), byte(word.StatusDest), byte(word.ChecksumWord), 1, byte(word.Data), 9})
	f.Add(1, 1, 1, []byte{byte(word.Route), 3, byte(word.HeaderPad), 0})
	f.Fuzz(func(t *testing.T, width, lanes, _ int, data []byte) {
		w := width % 16
		if w < 0 {
			w = -w
		}
		w++ // [1,16]
		l := lanes % 4
		if l < 0 {
			l = -l
		}
		l++ // [1,4]
		if w*l > 32 {
			l = 32 / w
		}
		p := parserFor(w, l)

		statuses := 0
		for i := 0; i+1 < len(data); i += 2 {
			kind := word.Kind(data[i] % 9) // the 9 defined symbol kinds
			if kind == word.Status {
				statuses++
			}
			wasTerminal := p.done || p.closed || p.failed
			p.feed(p.sh, nil, word.Word{Kind: kind, Payload: uint32(data[i+1])})
			if wasTerminal && (p.stages > statuses || !(p.done || p.closed || p.failed)) {
				t.Fatal("terminal parser state mutated by further input")
			}
		}
		if p.stages > statuses {
			t.Fatalf("parser reported %d router statuses from %d STATUS words", p.stages, statuses)
		}
	})
}
