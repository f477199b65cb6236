// Package nic implements the source-responsible network interfaces that
// METRO routers are designed to work with (paper, Sections 1, 3, 4).
//
// Routers never buffer, never retry and never acknowledge: every
// reliability obligation sits at the endpoints. A source interface builds
// the routing header, streams the message with an end-to-end checksum,
// reverses the connection with TURN, interprets the per-router STATUS and
// CHECKSUM words injected into the return stream (localizing faults to a
// stage when checksums disagree), verifies the destination's
// acknowledgment, and retries the whole message when the connection
// blocked, timed out, or was corrupted. Stochastic path selection inside
// the routers makes each retry likely to take a different path, so retries
// route around congestion and dynamic faults.
package nic

import (
	"fmt"

	"metro/internal/word"
)

// StageHeader describes what one router stage consumes from the head of a
// data stream.
type StageHeader struct {
	// DirBits is the number of routing bits the stage consumes
	// (log2 radix, core.Config.DirBits), counted as a ROUTE word's Bits
	// field counts them.
	DirBits uint8
	// HeaderWords is the stage's hw parameter: 0 for in-word bit
	// stripping, >= 1 for whole-word consumption during pipelined setup.
	HeaderWords int
}

// HeaderSpec captures everything a source needs to construct routing
// headers for a particular network. The channel width the headers are
// packed for is the endpoint's (Config.Width), passed to the methods
// that need it.
type HeaderSpec struct {
	// Stages lists the per-stage consumption, source side first.
	Stages []StageHeader
}

// Validate checks that headers can actually be constructed for a
// width-bit channel.
func (h HeaderSpec) Validate(width word.Width) error {
	for s, st := range h.Stages {
		if int(st.DirBits) > width.Bits() {
			return fmt.Errorf("nic: stage %d needs %d routing bits, width is %d", s, st.DirBits, width.Bits())
		}
		if st.HeaderWords < 0 {
			return fmt.Errorf("nic: stage %d has negative header words", s)
		}
	}
	return nil
}

// AppendBuild appends the routing header words of a width-bit channel for
// the given per-stage direction digits to dst and returns it, so a sender
// reusing its stream buffer constructs headers without touching the heap.
//
// For hw=0 stages, consecutive stages' digit bit-groups are packed into
// shared ROUTE words low bits first; a group that would straddle a word
// boundary starts a new word, and each word's Bits field counts exactly
// the bits routers will consume, so every word exhausts to zero at some
// stage and is swallowed there (see core.Router.parseRoute).
//
// An hw>=1 stage always gets its own ROUTE word carrying just its digit,
// followed by hw-1 HEADER-PAD words, all of which that stage consumes.
//
//metrovet:alloc appends into caller-owned scratch; steady state reuses capacity
//metrovet:truncate digits are directions in [0, 2^DirBits), and HeaderSpec.Validate keeps DirBits within the width's 32 bits
//metrovet:width HeaderSpec.Validate keeps DirBits <= width, and bits is flushed before bits+DirBits exceeds width <= 32
func (h HeaderSpec) AppendBuild(dst []word.Word, width word.Width, digits []int) []word.Word {
	if len(digits) != len(h.Stages) {
		panic(fmt.Sprintf("nic: %d digits for %d stages", len(digits), len(h.Stages)))
	}
	var cur uint32
	var bits uint8
	for s, st := range h.Stages {
		if st.HeaderWords >= 1 {
			if bits > 0 {
				dst = append(dst, word.MakeRoute(cur, bits))
				cur, bits = 0, 0
			}
			dst = append(dst, word.MakeRoute(uint32(digits[s]), st.DirBits))
			for i := 1; i < st.HeaderWords; i++ {
				dst = append(dst, word.Word{Kind: word.HeaderPad})
			}
			continue
		}
		if int(bits+st.DirBits) > width.Bits() {
			if bits > 0 {
				dst = append(dst, word.MakeRoute(cur, bits))
				cur, bits = 0, 0
			}
		}
		cur |= uint32(digits[s]) << bits
		bits += st.DirBits
	}
	if bits > 0 {
		dst = append(dst, word.MakeRoute(cur, bits))
	}
	return dst
}

// Words returns the number of words AppendBuild appends. It depends on the
// stages' consumption and the width only, never on the digits.
func (h HeaderSpec) Words(width word.Width) int {
	n, bits := 0, 0
	for _, st := range h.Stages {
		if st.HeaderWords >= 1 {
			if bits > 0 {
				n, bits = n+1, 0
			}
			n += st.HeaderWords
			continue
		}
		if bits+int(st.DirBits) > width.Bits() && bits > 0 {
			n, bits = n+1, 0
		}
		bits += int(st.DirBits)
	}
	if bits > 0 {
		n++
	}
	return n
}

// AppendExpectedStageChecksums appends to dst, lane-major, the CRC-8 a
// healthy stage-s component of each lane reports after the first TURN: the
// checksum of the forward-segment words as received at that stage, the
// lane's slice (word.MemberWord) of each word of sent, a stream AppendBuild
// began.
// The source compares these with the reported values to localize a
// corrupting link to the first disagreeing stage. No view is copied.
//
//metrovet:alloc appends into the caller's buffer; steady state reuses capacity
func (h HeaderSpec) AppendExpectedStageChecksums(dst []uint8, sent []word.Word, lanes int, width word.Width) []uint8 {
	for lane := 0; lane < lanes; lane++ {
		var v streamView
		for _, st := range h.Stages {
			var ck word.Checksum
			rest := sent[v.from:]
			if v.narrowed {
				ck.Add(v.head) // a ROUTE word, the same on every lane
				rest = rest[1:]
			}
			for _, w := range rest {
				if lanes > 1 {
					w = word.MemberWord(w, lane, width)
				}
				ck.Add(w)
			}
			dst = append(dst, ck.Sum())
			v = st.strip(sent, v)
		}
	}
	return dst
}

// streamView is the stream a stage receives, in terms of the one sent:
// sent[from:], its first word replaced by head when narrowed. A stage only
// drops words from the front of its view or narrows its first ROUTE word,
// which in a stream AppendBuild made leads the view.
type streamView struct {
	from     int
	head     word.Word
	narrowed bool
}

// strip returns the view of the next stage, given the view of the stage st
// describes: a stage with hw >= 1 consumes its first hw words outright;
// with hw == 0 it strips DirBits from the leading ROUTE word and swallows
// the word if that exhausts it (the default router configuration).
func (st StageHeader) strip(sent []word.Word, v streamView) streamView {
	if st.HeaderWords >= 1 {
		return streamView{from: min(v.from+st.HeaderWords, len(sent))}
	}
	w := v.head
	if !v.narrowed {
		if v.from == len(sent) || sent[v.from].Kind != word.Route {
			return v // no ROUTE word left to strip
		}
		w = sent[v.from]
	}
	if w.Bits > st.DirBits {
		// A ROUTE word AppendBuild made holds at most the width's 32 bits,
		// so DirBits < 32 here, where & 31 is the identity; the & 31 is
		// what shows the shift its bound.
		return streamView{from: v.from, head: word.MakeRoute(w.Payload>>(st.DirBits&31), w.Bits-st.DirBits), narrowed: true}
	}
	return streamView{from: v.from + 1}
}

// PackedWords returns the number of w-bit data words AppendPackBytes
// packs n bytes into.
func PackedWords(n int, w word.Width) int { return (n*8 + w.Bits() - 1) / w.Bits() }

// AppendPackBytes packs a byte payload into w-bit data words as an
// LSB-first bit stream, the first byte's low bit first, appends them to
// dst and returns it. Wide cascaded channels carry several bytes per word.
//
// Each refill finds accBits below width, and width is at most 32, so
// & 31 and & 63 are identities; they are what show the shifts their
// bounds.
//
//metrovet:alloc appends into caller-owned scratch; steady state reuses capacity
//metrovet:truncate by design: uint32(acc) extracts the low word, which MakeData masks to w
func AppendPackBytes(dst []word.Word, payload []byte, w word.Width) []word.Word {
	width := w.Bits()
	var acc uint64
	accBits := 0
	for _, b := range payload {
		acc |= uint64(b) << (accBits & 31)
		accBits += 8
		for accBits >= width {
			dst = append(dst, word.MakeData(uint32(acc), w))
			acc >>= width & 63
			accBits -= width
		}
	}
	if accBits > 0 {
		dst = append(dst, word.MakeData(uint32(acc), w))
	}
	return dst
}

// UnpackBytes inverts AppendPackBytes. Partial trailing bytes are
// discarded, but note that when w > 8 and the original payload did not
// fill a whole number of words, packing added zero padding bits that
// decode as extra trailing zero bytes: wide channels deliver payloads at
// channel-word granularity, exactly as aligned hardware transfers do.
// Applications needing byte-exact framing carry a length field in the
// payload.
func UnpackBytes(words []word.Word, w word.Width) []byte { return appendUnpackBytes(nil, words, w) }

// appendUnpackBytes unpacks words as UnpackBytes does, appending the
// len(words)*w.Bits()/8 bytes to dst.
//
// Each word finds accBits below 8, where & 7 is the identity; the & 7 is
// what shows the shift its bound.
//
//metrovet:alloc per-message payload unpacking, not a per-cycle path
//metrovet:truncate by design: byte(acc) extracts the low byte of the accumulator
func appendUnpackBytes(dst []byte, words []word.Word, w word.Width) []byte {
	var acc uint64
	accBits := 0
	for _, x := range words {
		acc |= uint64(x.Payload&word.Mask(w)) << (accBits & 7)
		accBits += w.Bits()
		for accBits >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			accBits -= 8
		}
	}
	return dst
}
