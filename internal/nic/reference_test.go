package nic

import (
	"bytes"
	"testing"

	"metro/internal/word"
)

// The reference model of what each routing stage receives: copy the sent
// stream, project it onto a lane, and strip it stage by stage in place,
// as core.Router consumes a header. AppendExpectedStageChecksums computes
// the same checksums over views of the sent stream without copying it;
// FuzzExpectedStageChecksums holds the two equal.

// stripStageInPlace transforms a word stream the way stage s consumes it:
// the words a stage-(s+1) router would receive. A stage with hw >= 1
// consumes the first hw words outright; with hw == 0 it strips DirBits
// from the first ROUTE word and swallows the word if that exhausts it (the
// default router configuration). It reuses stream's backing array: the
// write cursor never passes the read cursor (a strip only drops or narrows
// words), so the compaction is aliasing-safe.
func (h HeaderSpec) stripStageInPlace(stream []word.Word, s int) []word.Word {
	st := h.Stages[s]
	out := stream[:0]
	if st.HeaderWords >= 1 {
		skip := st.HeaderWords
		for _, w := range stream {
			if skip > 0 {
				skip--
				continue
			}
			out = append(out, w)
		}
		return out
	}
	stripped := false
	for _, w := range stream {
		if !stripped && w.Kind == word.Route {
			stripped = true
			if w.Bits > st.DirBits {
				out = append(out, word.MakeRoute(w.Payload>>st.DirBits, w.Bits-st.DirBits))
			}
			continue
		}
		out = append(out, w)
	}
	return out
}

// appendLaneSlice projects a logical word stream onto one cascade lane
// (word.MemberWord, word by word): exactly what the lane's routing
// component receives. The projection appends to dst, which is returned.
func appendLaneSlice(dst []word.Word, stream []word.Word, lane int, width word.Width) []word.Word {
	for _, w := range stream {
		dst = append(dst, word.MemberWord(w, lane, width))
	}
	return dst
}

// referenceExpected is AppendExpectedStageChecksums by the reference
// model: per lane, the checksum of a projected copy of the stream after
// each earlier stage stripped it.
func (h HeaderSpec) referenceExpected(sent []word.Word, lanes int, width word.Width) []uint8 {
	var sums []uint8
	for lane := 0; lane < lanes; lane++ {
		stream := appendLaneSlice(nil, sent, lane, width)
		for s := range h.Stages {
			var ck word.Checksum
			for _, w := range stream {
				ck.Add(w)
			}
			sums = append(sums, ck.Sum())
			stream = h.stripStageInPlace(stream, s)
		}
	}
	return sums
}

// FuzzExpectedStageChecksums derives a header spec (0-bit hw=0 stages
// included, which narrow a later stage's ROUTE word to itself), digits, a
// cascade and a payload from the input, builds the message stream as a
// sender does, and checks the view-based expected checksums against the
// reference model's.
func FuzzExpectedStageChecksums(f *testing.F) {
	f.Add(uint8(7), uint8(0), []byte{0x21, 0x32, 0x13}, []byte{0xaa, 0x55})
	f.Add(uint8(3), uint8(1), []byte{0x02, 0x00, 0x12, 0x02}, []byte("ack"))
	f.Add(uint8(0), uint8(3), []byte{0x01, 0x11, 0x40}, []byte{0x80})
	f.Add(uint8(15), uint8(1), []byte{0x26, 0x06, 0x30}, []byte(nil))
	f.Fuzz(func(t *testing.T, wb, lb uint8, stageBytes, payload []byte) {
		width := mustWidth(int(wb)%16 + 1)
		lanes := int(lb)%4 + 1
		if width.Bits()*lanes > 32 {
			lanes = 32 / width.Bits()
		}
		logical := mustWidth(width.Bits() * lanes)
		if len(stageBytes) > 6 {
			stageBytes = stageBytes[:6]
		}
		if len(payload) > 64 {
			payload = payload[:64]
		}
		var h HeaderSpec
		var digits []int
		for _, b := range stageBytes {
			dir := int(b) % (min(width.Bits(), 4) + 1) // [0, min(width, 4)]
			h.Stages = append(h.Stages, StageHeader{DirBits: uint8(dir), HeaderWords: int(b>>4) % 3})
			digits = append(digits, int(b>>2)&(1<<dir-1))
		}
		stream := h.AppendBuild(nil, width, digits)
		stream = AppendPackBytes(stream, payload, logical)
		var ck word.Checksum
		for _, w := range stream[h.Words(width):] {
			ck.Add(w)
		}
		stream = append(word.AppendChecksum(stream, ck.Sum(), logical), word.Word{Kind: word.Turn})

		got := h.AppendExpectedStageChecksums(nil, stream, lanes, width)
		if want := h.referenceExpected(stream, lanes, width); !bytes.Equal(got, want) {
			t.Fatalf("stages %+v, %d lanes of %d bits: expected checksums %x, reference %x", h.Stages, lanes, width.Bits(), got, want)
		}
	})
}
