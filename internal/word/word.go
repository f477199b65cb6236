// Package word defines the symbol alphabet transmitted on METRO network
// channels, together with the CRC-8 checksum the routers and network
// interfaces compute over transmitted streams.
//
// A METRO channel transfers one w-bit word per clock cycle. Besides ordinary
// data, the architecture defines several designated control words that are
// outside the normal band of data encodings (paper, Sections 4-5):
//
//   - ROUTE: the leading words of a stream carrying the routing
//     specification. Routers consume direction bits from these words.
//   - DATA-IDLE: holds a connection open when no data is available, used by
//     endpoints for variable-delay replies and by routers to fill pipeline
//     bubbles created by connection reversal and variable turn delay.
//   - TURN: reverses the direction of an open connection.
//   - STATUS and CHECKSUM: injected by each router into the reversed stream,
//     reporting whether the connection was blocked and the checksum of the
//     forwarded data, enabling source-side fault localization.
//   - DROP: closes the connection as it propagates, releasing resources.
//
// The backward control bit (BCB) used for fast path reclamation is carried
// out-of-band by the link model (package link), not as a Word.
package word

import "fmt"

// Kind identifies the class of symbol on a channel during one clock cycle.
type Kind uint8

// Symbol kinds. Empty means the channel is idle: no connection is open and
// nothing is being transmitted. All other kinds are valid only within an
// open (or opening) connection.
const (
	// Empty is the absence of a symbol: the channel carries no connection.
	Empty Kind = iota
	// Route carries routing-specification bits consumed by routers during
	// connection setup. Payload holds the bits; Bits counts how many of
	// them are still unconsumed.
	Route
	// HeaderPad is a setup padding word consumed from the stream head by a
	// router with HeaderWords > 0 (pipelined connection setup).
	HeaderPad
	// Data is an ordinary w-bit payload word.
	Data
	// DataIdle holds an open connection while no data is available.
	DataIdle
	// Turn requests reversal of the open connection's direction.
	Turn
	// Status is injected by a router (or endpoint) after a reversal and
	// reports the connection state at that node. See Status* payload bits.
	Status
	// ChecksumWord carries (part of) a CRC-8 checksum; routers inject one
	// after their Status word, and endpoints append one to each message.
	ChecksumWord
	// Drop closes the connection as it propagates, releasing the ports and
	// links it passes. Valid in both transmission directions.
	Drop
)

var kindNames = [...]string{
	Empty:        "EMPTY",
	Route:        "ROUTE",
	HeaderPad:    "HDRPAD",
	Data:         "DATA",
	DataIdle:     "IDLE",
	Turn:         "TURN",
	Status:       "STATUS",
	ChecksumWord: "CKSUM",
	Drop:         "DROP",
}

// String returns the conventional mnemonic for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Status word payload bits.
const (
	// StatusBlocked indicates the connection was blocked at the reporting
	// router: no backward port in the requested direction was available.
	StatusBlocked uint32 = 1 << 0
	// StatusDest indicates the Status word was produced by the destination
	// endpoint rather than a router.
	StatusDest uint32 = 1 << 1
	// StatusNack indicates the destination detected a checksum mismatch on
	// the received message.
	StatusNack uint32 = 1 << 2
)

// Word is one symbol as transferred across a channel in one clock cycle.
//
// Payload is masked to the channel width w by the sending node; Bits is
// metadata used only for Route words (the number of routing bits in Payload
// that have not yet been consumed by a router).
//
// Payload leads so the struct packs into 8 bytes (4 + 1 + 1, padded to the
// payload's alignment): every per-port pipeline, injection and elastic
// buffer in the model is an array of these, so the field order is the
// difference between 8 and 12 bytes a word. word_test.go pins the size.
type Word struct {
	Payload uint32
	Kind    Kind
	Bits    uint8
}

// IsEmpty reports whether the word carries no symbol.
func (w Word) IsEmpty() bool { return w.Kind == Empty }

// String formats the word for traces and test failures.
func (w Word) String() string {
	switch w.Kind {
	case Route:
		return fmt.Sprintf("ROUTE(%#x/%db)", w.Payload, w.Bits)
	case Data, Status, ChecksumWord:
		return fmt.Sprintf("%s(%#x)", w.Kind, w.Payload)
	case Empty, HeaderPad, DataIdle, Turn, Drop:
		return w.Kind.String()
	default:
		// Out-of-band kind value (corrupted word): Kind.String prints it
		// numerically.
		return w.Kind.String()
	}
}

// Width is a channel width w: a whole number of bits in [1, 32], the
// model's payload word. It stores w-1, so the zero value is width 1 and
// no value of the type is out of range; NewWidth is the only way to make
// another.
type Width struct{ m uint8 }

// NewWidth returns the width of n bits, or an error when n is outside
// [1, 32].
func NewWidth(n int) (Width, error) {
	if n < 1 || n > 32 {
		return Width{}, fmt.Errorf("width %d outside [1,32]", n)
	}
	return Width{m: uint8(n - 1)}, nil
}

// Bits returns the width in bits, in [1, 32].
func (w Width) Bits() int { return int(w.m) + 1 }

// Mask returns a bit mask covering a w-bit payload. At width 32 the
// shift wraps 2 to 0, and the decrement to all ones.
func Mask(w Width) uint32 { return uint32(2)<<(w.m&31) - 1 }

// MakeData returns a Data word carrying payload masked to width w.
func MakeData(payload uint32, w Width) Word {
	return Word{Kind: Data, Payload: payload & Mask(w)}
}

// MakeRoute returns a Route word carrying bits routing bits. A route bit
// count is a uint8 wherever it travels, as Word.Bits carries it.
func MakeRoute(payload uint32, bits uint8) Word {
	return Word{Kind: Route, Payload: payload, Bits: bits}
}

// MemberWord computes member k of a logical word bit-sliced across lanes
// of width w, as width cascading carries it (paper, Section 5.1). Control
// words are replicated; data-bearing payloads are bit-sliced with member 0
// carrying the least significant w bits. k is below the cascade factor c,
// so k*w < c*w <= 32, the logical channel bound, where & 31 is the
// identity; the & 31 is what shows the shift its bound.
func MemberWord(logical Word, k int, w Width) Word {
	switch logical.Kind {
	case Data, ChecksumWord:
		return Word{
			Kind:    logical.Kind,
			Payload: (logical.Payload >> (k * w.Bits() & 31)) & Mask(w),
		}
	case Empty, Route, HeaderPad, DataIdle, Turn, Status, Drop:
		// Control words are replicated so member state machines stay in
		// lockstep.
		return logical
	default:
		panic("word: MemberWord: out-of-band word kind")
	}
}

// MergeWords reassembles a logical word from the member words. The kinds
// must agree (members in lockstep); on disagreement the Empty word is
// returned, which upper layers treat as a protocol error.
func MergeWords(members []Word, w Width) Word {
	if len(members) == 0 {
		return Word{}
	}
	kind := members[0].Kind
	for _, m := range members[1:] {
		if m.Kind != kind {
			return Word{}
		}
	}
	switch kind {
	case Data, ChecksumWord:
		out := Word{Kind: kind}
		for k, m := range members {
			out.Payload |= (m.Payload & Mask(w)) << uint(k*w.Bits())
		}
		return out
	case Empty, Route, HeaderPad, DataIdle, Turn, Status, Drop:
		// Replicated control word: all members carry the same value.
		return members[0]
	default:
		panic("word: MergeWords: out-of-band word kind")
	}
}
